"""Property test: InterestUpdateBatch against a real /dev/poll device.

Random sequences of connection-like add/modify/close operations, staged
through the batch and flushed at arbitrary points, must always apply
cleanly (no EBADF from already-closed fds, no stale entries) and leave
the kernel interest set exactly matching a model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.devpoll import DevPollFile
from repro.kernel.constants import POLLIN, POLLOUT
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import SyscallInterface
from repro.events.devpoll_backend import InterestUpdateBatch
from repro.sim.engine import Simulator
from repro.sim.process import spawn

from ..core.conftest import FakeDriverFile

op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.just(0)),
        st.tuples(st.just("mod"), st.integers(0, 5)),
        st.tuples(st.just("close"), st.integers(0, 5)),
        st.tuples(st.just("flush"), st.just(0)),
    ),
    max_size=60,
)


@given(ops=op_strategy)
@settings(max_examples=60, deadline=None)
def test_batch_always_applies_cleanly(ops):
    sim = Simulator()
    kernel = Kernel(sim, "k")
    task = kernel.new_task("t", fd_limit=64)
    sys = SyscallInterface(task)
    dp_file = DevPollFile(kernel)
    dp_fd = task.fdtable.alloc(dp_file)

    batch = InterestUpdateBatch()
    open_fds = []          # fds currently open, in open order
    model = {}             # expected kernel interest set after all flushes
    staged = {}            # expected state including staged updates

    def flush():
        updates = batch.flush()
        if not updates:
            return

        def body():
            yield from sys.write(dp_fd, updates)

        proc = spawn(sim, body(), "flush")
        sim.run()
        assert proc.done.triggered  # EBADF would crash the process
        model.clear()
        model.update(staged)

    for op, idx in ops:
        if op == "open":
            f = FakeDriverFile(kernel, "conn")
            fd = task.fdtable.alloc(f)
            open_fds.append(fd)
            batch.add(fd, POLLIN)
            staged[fd] = POLLIN
        elif op == "mod" and open_fds:
            fd = open_fds[idx % len(open_fds)]
            batch.add(fd, POLLOUT)
            staged[fd] = POLLOUT
        elif op == "close" and open_fds:
            fd = open_fds.pop(idx % len(open_fds))
            batch.remove(fd)
            staged.pop(fd, None)
            task.fdtable.close(fd)
        elif op == "flush":
            flush()

    flush()
    assert sorted(e.fd for e in dp_file.interests) == sorted(model)
    for fd, events in model.items():
        assert dp_file.interests.lookup(fd).events == events
