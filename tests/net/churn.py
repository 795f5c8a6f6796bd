"""Real stack sockets pushed through their life, one random step at a time.

A server task listens on a small backlog and a client task holds a few
connections to it; each step opens one more (its SYN is queued, or
dropped once the backlog is full), accepts one, sends or reads some
bytes on either end, or closes either end.  Closing an end with unread
bytes aborts the connection, so the peer sees an RST; a clean close
sends a FIN.  Descriptors are allocated lowest first, so a close
followed by an accept or a connect reuses an fd for a new socket.
Every socket is nonblocking, so no step waits.
"""

from hypothesis import strategies as st

from repro.kernel.constants import F_SETFL, O_NONBLOCK, SyscallError
from repro.net.socket import SocketFile
from repro.sim.process import spawn

PORT = 80

#: one step: (what, which end, which connection, how many bytes)
STEPS = st.tuples(
    st.sampled_from(("connect", "accept", "send", "read", "close")),
    st.sampled_from(("server", "client")),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=40000))


class SocketChurn:
    def __init__(self, hosts, connections=3, backlog=4):
        self.sim = hosts.sim
        self.server = hosts.server_sys()
        self.client = hosts.client_sys()
        spawn(self.sim, self._listen(backlog), "listen")
        self.sim.run(until=self.sim.now + 0.01)
        for step in (("connect", "client", 0, 1), ("accept", "server", 0, 1)):
            for _ in range(connections):
                self.apply(step)
            self.run_for(0.5)

    def _listen(self, backlog):
        server = self.server
        self.listen_fd = yield from server.socket()
        yield from server.fcntl(self.listen_fd, F_SETFL, O_NONBLOCK)
        yield from server.bind(self.listen_fd, PORT)
        yield from server.listen(self.listen_fd, backlog)

    def connection_fds(self, end):
        """The end's open connection sockets' descriptors, in fd order."""
        return [fd for fd, file in getattr(self, end).task.fdtable.items()
                if isinstance(file, SocketFile) and file.listener is None]

    def sockets(self):
        """Every open socket on either host, the listener included."""
        return [file
                for sys in (self.server, self.client)
                for _fd, file in sys.task.fdtable.items()
                if isinstance(file, SocketFile)]

    def apply(self, step):
        """Start the process that takes ``step``."""
        what, end, which, nbytes = step
        sys = getattr(self, end)
        if what == "connect":
            body = self._connect()
        elif what == "accept":
            body = self._accept()
        else:
            fds = self.connection_fds(end)
            if not fds:
                return
            fd = fds[which % len(fds)]
            if what == "send":
                body = sys.write(fd, bytes(nbytes))
            elif what == "read":
                body = sys.read(fd, nbytes)
            else:
                body = sys.close(fd)
        spawn(self.sim, _tolerant(body), what)

    def _connect(self):
        client = self.client
        fd = yield from client.socket()
        yield from client.fcntl(fd, F_SETFL, O_NONBLOCK)
        yield from client.connect(fd, ("server", PORT))

    def _accept(self):
        server = self.server
        fd, _addr = yield from server.accept(self.listen_fd)
        yield from server.fcntl(fd, F_SETFL, O_NONBLOCK)

    def run_for(self, seconds, after_event=None):
        """Advance the simulation, calling ``after_event`` after each
        engine event."""
        sim = self.sim
        end = sim.now + seconds
        while after_event is not None:
            due = sim.peek()
            if due is None or due > end:
                break
            sim.run(until=end, max_events=1)
            after_event()
        sim.run(until=end)


def _tolerant(body):
    """Run a step's syscalls; an errno (EAGAIN, ECONNRESET, EPIPE, a
    refused or timed-out connect, a closed fd) just ends the step."""
    try:
        yield from body
    except SyscallError:
        pass
