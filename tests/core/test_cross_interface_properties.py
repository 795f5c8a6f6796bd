"""Cross-interface property tests.

The four event interfaces (poll, select, /dev/poll, epoll) are different
cost models over the *same* readiness ground truth; these hypothesis
tests pin the equivalences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.devpoll import DevPollFile
from repro.core.epoll import EPOLL_CTL_ADD, EPOLL_CTL_MOD
from repro.core.pollfd import DP_POLL, DvPoll, PollFd
from repro.kernel.constants import POLLERR, POLLHUP, POLLIN, POLLOUT
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import SyscallInterface
from repro.sim.engine import Simulator
from repro.sim.process import spawn

from .conftest import FakeDriverFile

NFILES = 8

mask_strategy = st.sampled_from([0, POLLIN, POLLOUT, POLLIN | POLLOUT])


def run_call(sim, gen):
    proc = spawn(sim, gen, "call")
    sim.run()
    assert proc.done.triggered
    return proc.done.value


@given(masks=st.lists(mask_strategy, min_size=NFILES, max_size=NFILES))
@settings(max_examples=60, deadline=None)
def test_select_equals_poll_on_same_state(masks):
    sim = Simulator()
    kernel = Kernel(sim, "k")
    task = kernel.new_task("t")
    sys = SyscallInterface(task)
    files = [FakeDriverFile(kernel, f"f{i}") for i in range(NFILES)]
    fds = [task.fdtable.alloc(f) for f in files]
    for f, mask in zip(files, masks):
        f._mask = mask

    poll_ready = run_call(
        sim, sys.poll([(fd, POLLIN | POLLOUT) for fd in fds], 0))
    readable, writable = run_call(sim, sys.select(fds, fds, 0))

    poll_read = {fd for fd, rev in poll_ready
                 if rev & (POLLIN | POLLERR | POLLHUP)}
    poll_write = {fd for fd, rev in poll_ready if rev & (POLLOUT | POLLERR)}
    assert set(readable) == poll_read
    assert set(writable) == poll_write


@given(masks=st.lists(mask_strategy, min_size=NFILES, max_size=NFILES),
       interests=st.lists(st.sampled_from([POLLIN, POLLOUT,
                                           POLLIN | POLLOUT]),
                          min_size=NFILES, max_size=NFILES))
@settings(max_examples=60, deadline=None)
def test_devpoll_equals_poll_on_same_state(masks, interests):
    sim = Simulator()
    kernel = Kernel(sim, "k")
    task = kernel.new_task("t")
    sys = SyscallInterface(task)
    files = [FakeDriverFile(kernel, f"f{i}") for i in range(NFILES)]
    fds = [task.fdtable.alloc(f) for f in files]
    dp_file = DevPollFile(kernel)
    dp_fd = task.fdtable.alloc(dp_file)

    def setup():
        yield from sys.write(
            dp_fd, [PollFd(fd, ev) for fd, ev in zip(fds, interests)])
        ep_fd = yield from sys.epoll_create()
        for fd, ev in zip(fds, interests):
            yield from sys.epoll_ctl(ep_fd, EPOLL_CTL_ADD, fd, ev)
        return ep_fd

    ep_fd = run_call(sim, setup())
    for f, mask in zip(files, masks):
        f.set_ready(mask) if mask else f.clear_ready()
    sim.run()

    poll_ready = dict(run_call(
        sim, sys.poll(list(zip(fds, interests)), 0)))
    dp_ready = {p.fd: p.revents for p in run_call(
        sim, sys.ioctl(dp_fd, DP_POLL,
                       DvPoll(dp_fds=[], dp_nfds=NFILES * 2, dp_timeout=0)))}
    ep_ready = dict(run_call(sim, sys.epoll_wait(ep_fd, NFILES * 2, 0)))
    assert dp_ready == poll_ready
    assert ep_ready == poll_ready


interest_strategy = st.sampled_from([POLLIN, POLLOUT, POLLIN | POLLOUT])
step_strategy = st.one_of(
    st.tuples(st.just("ready"), st.integers(0, NFILES - 1),
              st.sampled_from([0, POLLIN, POLLOUT, POLLIN | POLLOUT,
                               POLLHUP, POLLIN | POLLERR])),
    st.tuples(st.just("interest"), st.integers(0, NFILES - 1),
              interest_strategy))


@given(hints=st.lists(st.booleans(), min_size=NFILES, max_size=NFILES),
       interests=st.lists(interest_strategy, min_size=NFILES,
                          max_size=NFILES),
       steps=st.lists(step_strategy, max_size=30))
@settings(max_examples=200, deadline=None)
def test_devpoll_and_epoll_scan_the_same_entries(hints, interests, steps):
    """On one readiness history, with and without driver hint support, a
    zero-timeout DP_POLL and a level-triggered epoll_wait evaluate the
    same entries in each scan pass and report the same events."""
    sim = Simulator()
    kernel = Kernel(sim, "k")
    task = kernel.new_task("t")
    sys = SyscallInterface(task)
    files = [FakeDriverFile(kernel, f"f{i}", hints=h)
             for i, h in enumerate(hints)]
    fds = [task.fdtable.alloc(f) for f in files]
    dp_file = DevPollFile(kernel)
    dp_fd = task.fdtable.alloc(dp_file)

    def setup():
        yield from sys.write(
            dp_fd, [PollFd(fd, ev) for fd, ev in zip(fds, interests)])
        ep_fd = yield from sys.epoll_create()
        for fd, ev in zip(fds, interests):
            yield from sys.epoll_ctl(ep_fd, EPOLL_CTL_ADD, fd, ev)
        return ep_fd

    def change_interest(fd, events):
        yield from sys.write(dp_fd, [PollFd(fd, events)])
        yield from sys.epoll_ctl(ep_fd, EPOLL_CTL_MOD, fd, events)

    def harvest():
        dp_ready = yield from sys.ioctl(
            dp_fd, DP_POLL,
            DvPoll(dp_fds=[], dp_nfds=NFILES * 2, dp_timeout=0))
        ep_ready = yield from sys.epoll_wait(ep_fd, NFILES * 2, 0)
        return [(p.fd, p.revents) for p in dp_ready], ep_ready

    ep_fd = run_call(sim, setup())
    ep_file = task.fdtable.lookup(ep_fd)
    for kind, i, mask in [("none", 0, 0)] + steps:
        if kind == "ready":
            files[i].set_ready(mask) if mask else files[i].clear_ready()
            sim.run()
        elif kind == "interest":
            run_call(sim, change_interest(fds[i], mask))
        dp_ready, ep_ready = run_call(sim, harvest())
        assert dp_ready == ep_ready
        dps, eps = dp_file.stats, ep_file.stats
        assert (dps.driver_callbacks_ready_recheck,
                dps.driver_callbacks_hinted, dps.driver_callbacks_full) == (
            eps.ready_checks_cached, eps.ready_checks_hinted,
            eps.ready_checks_nohint)


@given(ops=st.lists(st.floats(min_value=0.0, max_value=0.01,
                              allow_nan=False), max_size=40),
       cats=st.lists(st.sampled_from(["a", "b", "c"]), max_size=40))
@settings(max_examples=40, deadline=None)
def test_cpu_accounting_conserved(ops, cats):
    """busy_time always equals the sum over categories."""
    import pytest

    sim = Simulator()
    kernel = Kernel(sim, "k", cpu_speed=0.5)
    for dur, cat in zip(ops, cats):
        kernel.cpu.consume(dur, category=cat)
    sim.run()
    assert kernel.cpu.busy_time == pytest.approx(
        sum(kernel.cpu.busy_by_category.values()))
