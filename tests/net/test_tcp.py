"""TCP model tests: handshake, flow control, teardown, the paper's limits."""

import gc
import itertools
import weakref

import pytest

from repro.kernel.constants import (
    ECONNREFUSED,
    ECONNRESET,
    EPIPE,
    ETIMEDOUT,
    POLLERR,
    POLLHUP,
    POLLIN,
    POLLOUT,
    SyscallError,
)
from repro.net.tcp import (
    SYN_RTO_SCHEDULE,
    TIME_WAIT_SECONDS,
    TcpEndpoint,
    segments_for,
)
from repro.sim.process import spawn

from ..conftest import TwoHosts


def server_echo_once(sys, port=80, backlog=8, respond=b"ok"):
    """Accept one connection, read one chunk, reply, close."""

    def body():
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, port)
        yield from sys.listen(lfd, backlog)
        fd, _addr = yield from sys.accept(lfd)
        data = yield from sys.read(fd, 65536)
        yield from sys.write(fd, respond)
        yield from sys.close(fd)
        yield from sys.close(lfd)
        return data

    return body


def test_connect_transfer_close_roundtrip(sim, hosts):
    ssys = hosts.server_sys()
    csys = hosts.client_sys()
    srv = spawn(sim, server_echo_once(ssys)(), "srv")
    result = {}

    def client():
        fd = yield from csys.socket()
        yield from csys.connect(fd, ("server", 80))
        yield from csys.write(fd, b"hello")
        reply = yield from csys.read(fd, 100)
        eof = yield from csys.read(fd, 100)
        yield from csys.close(fd)
        result["reply"], result["eof"] = reply, eof

    spawn(sim, client(), "cli")
    sim.run(until=10)
    assert srv.done.value == b"hello"
    assert result == {"reply": b"ok", "eof": b""}


def test_connect_refused_when_no_listener(sim, hosts):
    csys = hosts.client_sys()
    result = {}

    def client():
        fd = yield from csys.socket()
        try:
            yield from csys.connect(fd, ("server", 80))
        except SyscallError as err:
            result["errno"] = err.errno_code

    spawn(sim, client(), "cli")
    sim.run(until=10)
    assert result["errno"] == ECONNREFUSED


def test_backlog_overflow_drops_syn_then_retransmit_succeeds(sim, hosts):
    """SYNs beyond the backlog are dropped silently; the 3 s RTO retry
    connects once the server drains its accept queue."""
    ssys = hosts.server_sys()
    csys = hosts.client_sys()

    def server():
        lfd = yield from ssys.socket()
        yield from ssys.bind(lfd, 80)
        yield from ssys.listen(lfd, 1)
        # sleep past the first SYN volley, then start accepting
        yield 1.0
        for _ in range(2):
            fd, _ = yield from ssys.accept(lfd)
            yield from ssys.close(fd)

    times = []

    def client(delay):
        def body():
            yield delay
            fd = yield from csys.socket()
            yield from csys.connect(fd, ("server", 80))
            times.append(sim.now)
            yield from csys.close(fd)

        return body

    spawn(sim, server(), "srv")
    spawn(sim, client(0.0)(), "c1")
    spawn(sim, client(0.1)(), "c2")  # backlog is 1: this SYN is dropped
    sim.run(until=20)
    assert len(times) == 2
    assert times[1] >= 0.1 + SYN_RTO_SCHEDULE[0]
    assert hosts.server_stack.counters.get("tcp.syn_drops") == 1
    assert hosts.client_stack.counters.get("tcp.syn_retransmits") == 1


def test_connect_timeout(sim, hosts):
    """All SYNs dropped => ETIMEDOUT after the caller's deadline."""
    ssys = hosts.server_sys()
    csys = hosts.client_sys()

    def server():
        lfd = yield from ssys.socket()
        yield from ssys.bind(lfd, 80)
        yield from ssys.listen(lfd, 1)
        # fill the backlog and never accept
        yield 1000.0

    def filler():
        fd = yield from csys.socket()
        yield from csys.connect(fd, ("server", 80))
        yield 1000.0

    result = {}

    def client():
        yield 0.5
        fd = yield from csys.socket()
        try:
            yield from csys.connect(fd, ("server", 80), timeout=5.0)
        except SyscallError as err:
            result["errno"] = err.errno_code
            result["t"] = sim.now

    spawn(sim, server(), "srv")
    spawn(sim, filler(), "filler")
    spawn(sim, client(), "cli")
    sim.run(until=30)
    assert result["errno"] == ETIMEDOUT
    assert result["t"] == pytest.approx(5.5, abs=0.1)


def test_flow_control_blocks_sender_until_reader_drains(sim, hosts):
    """A never-reading peer (an inactive client, reversed) stalls the
    sender once both windows fill."""
    ssys = hosts.server_sys()
    csys = hosts.client_sys()
    progress = {}

    def server():
        lfd = yield from ssys.socket()
        yield from ssys.bind(lfd, 80)
        yield from ssys.listen(lfd, 8)
        fd, _ = yield from ssys.accept(lfd)
        total = 0
        # recv_buf (32k) + send_buf (16k) can absorb 48k; 100k must block
        sent = yield from ssys.write(fd, b"x" * 100000)
        total += sent
        progress["sent"] = total
        progress["t"] = sim.now

    def client():
        fd = yield from csys.socket()
        yield from csys.connect(fd, ("server", 80))
        yield 5.0  # let the server wedge against the closed window
        assert "sent" not in progress
        got = 0
        while got < 100000:
            data = yield from csys.read(fd, 8192)
            got += len(data)
        progress["received"] = got

    spawn(sim, server(), "srv")
    spawn(sim, client(), "cli")
    sim.run(until=60)
    assert progress["sent"] == 100000
    assert progress["received"] == 100000


def test_close_with_unread_data_sends_rst(sim, hosts):
    ssys = hosts.server_sys()
    csys = hosts.client_sys()
    result = {}

    def server():
        lfd = yield from ssys.socket()
        yield from ssys.bind(lfd, 80)
        yield from ssys.listen(lfd, 8)
        fd, _ = yield from ssys.accept(lfd)
        yield 0.5  # data arrives
        yield from ssys.close(fd)  # unread request -> RST
        yield 1.0
        try:
            yield from ssys.read(fd, 10)
        except SyscallError:
            pass

    def client():
        fd = yield from csys.socket()
        yield from csys.connect(fd, ("server", 80))
        yield from csys.write(fd, b"request")
        yield 1.0
        try:
            yield from csys.read(fd, 100)
        except SyscallError as err:
            result["errno"] = err.errno_code

    spawn(sim, server(), "srv")
    spawn(sim, client(), "cli")
    sim.run(until=10)
    assert result["errno"] == ECONNRESET


def test_write_after_local_close_raises_epipe(sim, hosts):
    ssys = hosts.server_sys()
    csys = hosts.client_sys()
    result = {}

    def server():
        lfd = yield from ssys.socket()
        yield from ssys.bind(lfd, 80)
        yield from ssys.listen(lfd, 8)
        fd, _ = yield from ssys.accept(lfd)
        yield 100.0

    def client():
        fd = yield from csys.socket()
        yield from csys.connect(fd, ("server", 80))
        endpoint = csys.task.fdtable.get(fd).endpoint
        endpoint.close()
        try:
            endpoint.send(b"too late")
        except SyscallError as err:
            result["errno"] = err.errno_code
        if False:
            yield

    spawn(sim, server(), "srv")
    spawn(sim, client(), "cli")
    sim.run(until=5)
    assert result["errno"] == EPIPE


def test_first_closer_enters_time_wait(sim, hosts):
    ssys = hosts.server_sys()
    csys = hosts.client_sys()
    spawn(sim, server_echo_once(ssys)(), "srv")
    ends = []

    def client():
        fd = yield from csys.socket()
        yield from csys.connect(fd, ("server", 80))
        end = csys.task.fdtable.get(fd).endpoint
        ends.extend((weakref.ref(end), weakref.ref(end.peer)))
        yield from csys.write(fd, b"q")
        while (yield from csys.read(fd, 100)) != b"":
            pass
        yield from csys.close(fd)

    spawn(sim, client(), "cli")
    sim.run(until=5)
    # the server wrote then closed first -> its side holds TIME-WAIT
    assert hosts.server_stack.time_wait_count == 1
    assert hosts.client_stack.time_wait_count == 0
    # ... and it holds only the port: both ends of the finished
    # connection can be collected
    gc.collect()
    assert [end() for end in ends] == [None, None]
    sim.run(until=5 + TIME_WAIT_SECONDS + 1)
    assert hosts.server_stack.time_wait_count == 0


def test_rst_skips_time_wait(sim, hosts):
    ssys = hosts.server_sys()
    csys = hosts.client_sys()

    def server():
        lfd = yield from ssys.socket()
        yield from ssys.bind(lfd, 80)
        yield from ssys.listen(lfd, 8)
        fd, _ = yield from ssys.accept(lfd)
        yield 0.5
        yield from ssys.close(fd)  # abortive (unread data)

    def client():
        fd = yield from csys.socket()
        yield from csys.connect(fd, ("server", 80))
        yield from csys.write(fd, b"zzz")
        yield 2.0
        yield from csys.close(fd)

    spawn(sim, server(), "srv")
    spawn(sim, client(), "cli")
    sim.run(until=10)
    assert hosts.server_stack.time_wait_count == 0
    assert hosts.client_stack.time_wait_count == 0


def test_client_port_released_after_graceful_close(sim, hosts):
    ssys = hosts.server_sys()
    csys = hosts.client_sys()
    spawn(sim, server_echo_once(ssys)(), "srv")
    before = hosts.client_stack.ports_available

    def client():
        fd = yield from csys.socket()
        yield from csys.connect(fd, ("server", 80))
        yield from csys.write(fd, b"q")
        while (yield from csys.read(fd, 100)) != b"":
            pass
        yield from csys.close(fd)

    spawn(sim, client(), "cli")
    sim.run(until=10)
    assert hosts.client_stack.ports_available == before


def test_ephemeral_port_exhaustion(sim, hosts):
    csys = hosts.client_sys()
    stack = hosts.client_stack
    # drain the pool
    while stack.ports_available:
        stack.alloc_ephemeral_port()
    result = {}

    def client():
        fd = yield from csys.socket()
        try:
            yield from csys.connect(fd, ("server", 80))
        except SyscallError as err:
            result["errno"] = err.errno_code

    spawn(sim, client(), "cli")
    sim.run(until=5)
    from repro.kernel.constants import EADDRINUSE

    assert result["errno"] == EADDRINUSE


def test_segments_for():
    assert segments_for(0) == 1
    assert segments_for(1) == 1
    assert segments_for(1460) == 1
    assert segments_for(1461) == 2
    assert segments_for(6144) == 5


def test_listener_close_resets_queued_children(sim, hosts):
    ssys = hosts.server_sys()
    csys = hosts.client_sys()
    result = {}

    def server():
        lfd = yield from ssys.socket()
        yield from ssys.bind(lfd, 80)
        yield from ssys.listen(lfd, 8)
        yield 1.0  # client connects, lands in accept queue
        yield from ssys.close(lfd)  # never accepted

    def client():
        fd = yield from csys.socket()
        yield from csys.connect(fd, ("server", 80))
        try:
            while True:
                data = yield from csys.read(fd, 100)
                if data == b"":
                    result["eof"] = True
                    return
        except SyscallError as err:
            result["errno"] = err.errno_code

    spawn(sim, server(), "srv")
    spawn(sim, client(), "cli")
    sim.run(until=10)
    assert result.get("errno") == ECONNRESET


def _property_mask(ep):
    """Reference mask, term by term: readable, writable (established,
    open for sending and with send space), then error and hangup."""
    readable = ep.recv_bytes > 0 or ep.fin_received or ep.reset
    send_space = max(0, ep.send_buf - ep.send_pending)
    writable = (ep.established and not ep.closing and not ep.reset
                and not ep.fin_sent and send_space > 0)
    mask = 0
    if readable:
        mask |= POLLIN
    if writable:
        mask |= POLLOUT
    if ep.reset:
        mask |= POLLERR | POLLHUP
    elif ep.fin_received and ep.fin_sent:
        mask |= POLLHUP
    return mask


def test_poll_mask_matches_property_formula_in_every_state(hosts):
    ep = TcpEndpoint(hosts.server_stack, 80, "client", owns_port=False)
    buf = ep.send_buf
    flags = ("reset", "fin_received", "fin_sent", "established", "closing")
    states = itertools.product(
        *[(False, True)] * len(flags), (0, 100), (0, 1, buf, buf + 1))
    checked = 0
    for *values, recv_bytes, send_pending in states:
        for name, value in zip(flags, values):
            setattr(ep, name, value)
        ep.recv_bytes = recv_bytes
        ep.send_pending = send_pending
        assert ep.poll_mask() == _property_mask(ep), (
            dict(zip(flags, values)), recv_bytes, send_pending)
        checked += 1
    assert checked == 256
