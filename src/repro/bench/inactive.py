"""The inactive-connection generator (section 5).

"We add client programs that do not complete an http request.  To keep
the number of high-latency clients constant, these clients reopen their
connection if the server times them out."

Each slot connects, sends a *partial* request (no terminating blank
line), and then sits silent -- holding a descriptor in the server's
interest set, which is precisely the load /dev/poll is designed to make
cheap.  When the server's idle sweep closes the connection (or resets
it), the slot backs off briefly and reconnects, so the offered inactive
load stays constant for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..kernel.constants import SyscallError
from ..kernel.syscalls import SyscallInterface
from ..sim.engine import Event
from ..sim.process import spawn
from .testbed import Testbed

#: A request head that never completes (no final CRLF), dribbled out in
#: small fragments the way a slow modem link would deliver it.  Each
#: fragment is a separate readiness event at the server.
PARTIAL_FRAGMENTS = (b"GET /i", b"ndex", b".html HTT",
                     b"P/1.0\r\nUser-Agent: slow-modem")
#: modem-speed gap between successive request fragments, seconds
FRAGMENT_GAP = 0.03
#: pause before reopening after the server drops us, seconds
RECONNECT_BACKOFF = 0.1
#: connect() deadline of one slot, seconds
CONNECT_TIMEOUT = 10.0


@dataclass
class InactivePoolConfig:
    """Sizing and pacing of the inactive-connection pool."""

    count: int = 1
    #: stagger initial connects over this many seconds
    ramp_time: float = 1.0


class InactiveConnectionPool:
    """Keeps ``count`` never-completing connections open to the server."""

    def __init__(self, testbed: Testbed,
                 config: Optional[InactivePoolConfig] = None,
                 name: str = "inactive"):
        self.testbed = testbed
        self.config = config if config is not None else InactivePoolConfig()
        self.name = name
        self.task = testbed.client_kernel.new_task(
            name, fd_limit=self.config.count + 64)
        self.sys = SyscallInterface(self.task)
        self._rng = testbed.rng.stream(f"{name}.backoff")
        self.running = True
        self.connected = 0
        self.reconnects = 0
        self.connect_failures = 0
        #: triggered the first time every slot is simultaneously connected
        self.all_connected: Event = testbed.sim.event(f"{name}.ready")

    def start(self) -> None:
        """Launch one slot process per inactive connection, staggered.

        A zero-sized pool is trivially "fully connected" -- the harness
        supports inactive=0 workloads without waiting out the ramp.
        """
        if self.config.count <= 0:
            if not self.all_connected.triggered:
                self.all_connected.trigger(None)
            return
        for slot in range(self.config.count):
            offset = (self.config.ramp_time * slot / max(1, self.config.count))
            self.testbed.sim.schedule(
                offset, spawn, self.testbed.sim, self._slot(slot),
                f"{self.name}.{slot}")

    def stop(self) -> None:
        """Stop reconnecting; slots wind down as the server drops them."""
        self.running = False

    # ------------------------------------------------------------------
    def _slot(self, slot: int):
        sys = self.sys
        cfg = self.config
        while self.running:
            fd = None
            try:
                fd = yield from sys.socket()
                yield from sys.connect(fd, self.testbed.server_addr,
                                       timeout=CONNECT_TIMEOUT)
                for i, fragment in enumerate(PARTIAL_FRAGMENTS):
                    if i:
                        yield FRAGMENT_GAP * (1 + self._rng.random())
                    yield from sys.write(fd, fragment)
            except SyscallError:
                self.connect_failures += 1
                if fd is not None:
                    try:
                        yield from sys.close(fd)
                    except SyscallError:
                        pass
                yield RECONNECT_BACKOFF * (1 + self._rng.random())
                continue
            self.connected += 1
            if (self.connected >= cfg.count
                    and not self.all_connected.triggered):
                self.all_connected.trigger(None)
            # Sit on the connection until the server drops it.
            try:
                while self.running:
                    data = yield from sys.read(fd, 4096)
                    if data == b"":
                        break  # server idle-timeout closed us
            except SyscallError:
                pass  # reset also counts as being dropped
            self.connected -= 1
            try:
                yield from sys.close(fd)
            except SyscallError:
                pass
            if not self.running:
                return
            self.reconnects += 1
            yield RECONNECT_BACKOFF * (1 + self._rng.random())
