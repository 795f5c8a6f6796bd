"""The socket driver's side of the quiet-bit rule.

A scan may skip the driver poll callback of a ``quiet`` socket (see
:mod:`repro.kernel.file`) only because the stack reports every rise of
a readiness bit other than ``POLLOUT`` through ``notify()``: a queued
connection, data, FIN and RST.  These tests drive real stack sockets
through random lives and check that contract after every engine event,
rather than assume it.
"""

from collections import Counter
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.constants import POLLIN, POLLOUT
from repro.kernel.file import File, NullFile
from repro.kernel.kernel import Kernel
from repro.sim.engine import Simulator

from ..conftest import TwoHosts
from .churn import STEPS, SocketChurn


@given(steps=st.lists(STEPS, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_quiet_socket_reports_nothing_but_pollout(steps):
    """After every engine event of a random socket life, a quiet socket
    reads nothing but POLLOUT, and no other bit rose unnotified."""
    notifies = Counter()
    real_notify = File.notify

    def counting_notify(self, band):
        notifies[self] += 1
        real_notify(self, band)

    seen = {}

    def check():
        for sock in churn.sockets():
            bits = sock.poll_mask() & ~POLLOUT
            assert not (sock.quiet and bits), f"{sock.name} quiet but {bits:#x}"
            before = seen.get(sock)
            if before is not None and bits & ~before[0]:
                assert notifies[sock] > before[1], (
                    f"{sock.name}: {bits & ~before[0]:#x} rose unnotified")
            seen[sock] = (bits, notifies[sock])

    with patch.object(File, "notify", counting_notify):
        churn = SocketChurn(TwoHosts(Simulator()))
        for step in steps:
            churn.apply(step)
            churn.run_for(0.01, check)
            # a scan: every socket with nothing but POLLOUT turns quiet
            for sock in churn.sockets():
                sock.driver_poll()
            check()
        churn.run_for(30.0, check)


def test_callback_marks_quiet_and_notify_clears_it():
    churn = SocketChurn(TwoHosts(Simulator()), connections=0)
    listener = churn.server.task.fdtable.get(churn.listen_fd)
    assert not listener.quiet  # unknown until a callback reads it
    assert listener.driver_poll() == 0 and listener.quiet
    churn.apply(("connect", "client", 0, 1))
    churn.run_for(0.01)
    assert not listener.quiet  # the queued connection notified
    churn.apply(("accept", "server", 0, 1))
    churn.run_for(0.01)
    server_end = churn.server.task.fdtable.get(
        churn.connection_fds("server")[0])
    assert not server_end.quiet
    assert server_end.driver_poll() == POLLOUT and server_end.quiet
    churn.apply(("send", "client", 0, 100))
    churn.run_for(0.01)
    assert not server_end.quiet
    assert server_end.driver_poll() == POLLIN | POLLOUT
    assert not server_end.quiet


def test_only_sockets_turn_quiet():
    """Other drivers never declared the notify contract."""
    null = NullFile(Kernel(Simulator(), "k"))
    null.driver_poll()
    assert not null.quiet and null.poll_callback_count == 1
