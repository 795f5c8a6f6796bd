"""The O(n) scans skip quiet sockets exactly.

poll(), select() and ``DP_POLL`` with hints off call every descriptor's
driver poll callback in simulated time.  On the host they skip the call
for a ``quiet`` socket (see :mod:`repro.kernel.file`) whose caller asks
nothing of ``POLLOUT``.  The property test checks each scan's result
against a reference loop that evaluates every descriptor, over real
sockets churned at random; the last test checks that the saving is
there.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.devpoll import DevPollConfig
from repro.core.poll_table import PollTable
from repro.core.pollfd import DP_ALLOC, DP_POLL, DvPoll, PollFd
from repro.kernel.constants import (
    POLL_ALWAYS,
    POLLERR,
    POLLHUP,
    POLLIN,
    POLLNVAL,
    POLLOUT,
    POLLREMOVE,
)
from repro.kernel.costs import CostModel
from repro.kernel.waitqueue import WaitQueue
from repro.net.socket import SocketFile
from repro.sim.engine import Simulator
from repro.sim.process import spawn

from ..conftest import TwoHosts
from ..net.churn import STEPS, SocketChurn

#: interests; mostly POLLIN, the only kind a quiet socket skips
EVENTS = st.sampled_from((POLLIN, POLLIN, POLLOUT, POLLIN | POLLOUT))


def run_now(syscall):
    """Run a syscall that neither blocks nor charges (a zero-cost
    kernel) to completion at this instant, outside the engine, so no
    event lands between its scan and whatever the caller does next."""
    value = None
    while True:
        try:
            event = syscall.send(value)
        except StopIteration as stop:
            return stop.value
        assert event.triggered, "the syscall waited"
        value = event.value


def run_in_process(churn, syscall):
    """Run ``syscall`` in a process on ``churn``'s simulation; its value."""
    out = []

    def body():
        out.append((yield from syscall))

    spawn(churn.sim, body(), "scan")
    churn.run_for(0.01)
    return out[0]


# -- the reference: the scans' loops before the skip, reading every
# descriptor's mask with poll_mask(), which moves no count and no bit --

def reference_poll(lookup, interests):
    ready = []
    for fd, events in interests:
        file = lookup(fd)
        if file is None or file.closed:
            ready.append((fd, POLLNVAL))
            continue
        mask = file.poll_mask() & (events | POLL_ALWAYS)
        if mask:
            ready.append((fd, mask))
    return ready


def reference_select(lookup, rset, wset):
    readable, writable = [], []
    for fd in sorted(rset | wset):
        mask = lookup(fd).poll_mask()
        if fd in rset and mask & (POLLIN | POLLERR | POLLHUP):
            readable.append(fd)
        if fd in wset and mask & (POLLOUT | POLLERR):
            writable.append(fd)
    return readable, writable


def reference_dp_poll(devpoll):
    ready = []
    for entry in devpoll.interests:
        file = entry.file
        if file is None or file.closed:
            revents = POLLNVAL
        else:
            revents = file.poll_mask() & (entry.events | POLL_ALWAYS)
        if revents:
            ready.append((entry.fd, entry.events, revents))
    return ready


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_scans_match_a_reference_that_evaluates_every_descriptor(data):
    """Socket events interleave at random with poll() (duplicate fds
    allowed), select() and hints-off ``DP_POLL`` on the server task,
    over mixed POLLIN/POLLOUT interests.  Each result must equal the
    reference's at the same instant, and each file's callback count
    must equal the number of scans that covered it."""
    churn = SocketChurn(TwoHosts(Simulator(), costs=CostModel().scaled(0.0)))
    server = churn.server
    lookup = server.task.fdtable.lookup
    dp_fd = run_now(server.open_devpoll(DevPollConfig(use_hints=False)))
    devpoll = lookup(dp_fd)
    # results through the mapped area: DP_POLL charges no copy-out
    run_now(server.ioctl(dp_fd, DP_ALLOC, 64))
    run_now(server.mmap_devpoll(dp_fd))
    covered = Counter()

    def cover(scanned):
        covered.update(f for f in scanned if f is not None and not f.closed)

    files = {devpoll}
    scans = st.sampled_from(("poll", "select", "dp_write", "dp_poll"))
    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        step = data.draw(st.one_of(STEPS, scans))
        files.update(churn.sockets())
        open_fds = server.task.fdtable.open_fds()
        if step == "poll":
            # an fd past the table's end reports POLLNVAL
            fds = st.sampled_from(open_fds + [max(open_fds) + 1])
            interests = data.draw(st.lists(st.tuples(fds, EVENTS),
                                           max_size=12))
            result = run_now(server.poll(interests, 0))
            assert result == reference_poll(lookup, interests)
            cover(lookup(fd) for fd, _events in interests)
        elif step == "select":
            fds = st.sets(st.sampled_from(open_fds))
            rset, wset = data.draw(fds), data.draw(fds)
            result = run_now(server.select(rset, wset, 0))
            assert result == reference_select(lookup, rset, wset)
            cover(map(lookup, rset | wset))
        elif step == "dp_write":
            sockets = [fd for fd in open_fds if fd != dp_fd]
            updates = data.draw(st.lists(st.builds(
                PollFd, st.sampled_from(sockets),
                st.one_of(EVENTS, st.just(POLLREMOVE))), max_size=6))
            run_now(server.write(dp_fd, updates))
        elif step == "dp_poll":
            result = run_now(server.ioctl(
                dp_fd, DP_POLL, DvPoll(dp_fds=None, dp_nfds=0, dp_timeout=0)))
            assert ([(p.fd, p.events, p.revents) for p in result]
                    == reference_dp_poll(devpoll))
            cover(entry.file for entry in devpoll.interests)
        else:
            churn.apply(step)
        churn.run_for(0.005)
    for file in files:
        assert file.poll_callback_count == covered[file], file.name


@pytest.mark.parametrize("scan", ["select", "poll", "dp_poll"])
def test_second_scan_evaluates_only_what_changed(scan, monkeypatch):
    """200 idle sockets and one active one: the second scan makes at
    most two socket callbacks on the host, but counts (and charges) one
    for every socket.  For select() and poll() with a kept poll table,
    a second sleep over the same sockets adds and removes no wait-queue
    entry and looks up no descriptor, and its two scans make at most
    two socket callbacks."""
    churn = SocketChurn(TwoHosts(Simulator()), connections=201, backlog=256)
    server = churn.server
    fds = churn.connection_fds("server")
    sockets = [server.task.fdtable.get(fd) for fd in fds]
    assert len(sockets) == 201
    if scan == "select":
        def call():
            return server.select(fds, (), 0)
    elif scan == "poll":
        def call():
            return server.poll([(fd, POLLIN) for fd in fds], 0)
    else:
        dp_fd = run_in_process(churn, server.open_devpoll(
            DevPollConfig(use_hints=False)))
        run_in_process(churn, server.write(
            dp_fd, [PollFd(fd, POLLIN) for fd in fds]))

        def call():
            return server.ioctl(dp_fd, DP_POLL, DvPoll(
                dp_fds=[], dp_nfds=0, dp_timeout=0))
    masks = 0
    poll_mask = SocketFile.poll_mask

    def counting_poll_mask(self):
        nonlocal masks
        masks += 1
        return poll_mask(self)

    monkeypatch.setattr(SocketFile, "poll_mask", counting_poll_mask)
    assert not any(run_in_process(churn, call()))  # every socket idle
    before = [sock.poll_callback_count for sock in sockets]
    churn.apply(("send", "client", 0, 100))
    churn.run_for(0.01)
    masks = 0
    assert any(run_in_process(churn, call()))
    assert masks <= 2
    assert [sock.poll_callback_count for sock in sockets] == [
        count + 1 for count in before]
    if scan == "dp_poll":
        return
    churn.apply(("read", "server", 0, 100))  # idle again
    churn.run_for(0.01)
    table = PollTable(server.task)
    if scan == "select":
        def sleep():
            return server.select(set(fds), set(), None, table=table)
    else:
        interests = [(fd, POLLIN) for fd in fds]

        def sleep():
            return server.poll(interests, None, table=table)
    def counting(calls, name, method):
        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return counted

    for _sleep in range(2):
        calls = Counter()
        with pytest.MonkeyPatch.context() as patch:
            for name in ("add", "attach", "remove"):
                patch.setattr(WaitQueue, name,
                              counting(calls, name, getattr(WaitQueue, name)))
            fdtable = server.task.fdtable
            patch.setattr(fdtable, "lookup",
                          counting(calls, "lookup", fdtable.lookup))
            masks = 0
            before = [sock.poll_callback_count for sock in sockets]
            spawn(churn.sim, sleep(), "sleep")
            churn.run_for(0.01)
            assert table.armed_at is not None  # asleep
            churn.apply(("send", "client", 1, 100))
            churn.run_for(0.01)
            # the socket read since the last scan, and the one woken
            assert table.armed_at is None and masks <= 2
            assert [sock.poll_callback_count for sock in sockets] == [
                count + 2 for count in before]
        churn.apply(("read", "server", 1, 100))
        churn.run_for(0.01)
    # the second sleep: the first hooked every socket
    assert calls == Counter(), calls
