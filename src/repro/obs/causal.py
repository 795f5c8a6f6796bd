"""Event-causality ledger: why did this wakeup happen, and how late?

The profiler (:mod:`repro.obs.profiler`) answers *where CPU went*; this
module answers *how readiness information travelled*.  Every readiness
notification is stamped along its full path --

    packet arrival -> softirq backmap hint -> kernel subsystem enqueue
    (interest-set scan / devpoll harvest / rtsig queue / epoll
    ready-list) -> backend ``wait()`` return -> server dispatch -> reply

-- with per-hop simulated timestamps, so we get wakeup-latency
histograms (ready -> harvested, in ms) and per-backend pathology counters
(spurious wakeups, rtsig overflows and SIGIO recovery episodes, stale
post-close events, and so on).

Like every observation layer in this repo the ledger is **zero-cost**:
hooks are pure-Python bookkeeping, charge no simulated CPU, and every
call site guards on ``ledger.enabled`` so a disabled ledger costs one
attribute check.  Enabling tracing must change no simulated
measurement; ``benchmarks/test_microbench_core.py`` and the CI
trace-smoke job pin this.

This module is dependency-free (no kernel imports) so the kernel can
hold a :data:`NULL_LEDGER` default without an import cycle.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from .latency import LatencyHistogram

# Canonical hop order of a completed causality chain.  Chains may skip
# hops (select/poll have no kernel enqueue stage; a listener fd never
# reaches "reply") -- consecutive *present* hops become trace spans.
HOP_ORDER = ("ready", "enqueue", "harvest", "dispatch", "reply")

# Ring capacities.  Chains dominate the ledger's memory; the deques
# keep long capacity searches bounded while the counters and
# histograms cover the whole run.
CHAIN_CAPACITY = 4096
MARK_CAPACITY = 1024


class CausalLedger:
    """Stamps readiness notifications along their causal path.

    Keys pending readiness by the :class:`~repro.kernel.file.File`
    *object* (a File does not know its fd); the backend's harvest hook
    resolves fd -> File through the server task's fdtable and joins the
    two halves of the chain.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.counters: Dict[str, int] = {}
        #: ready -> harvest and ready -> reply, in milliseconds
        self.wakeup_latency = LatencyHistogram()
        self.path_latency = LatencyHistogram()
        self.chains: deque = deque(maxlen=CHAIN_CAPACITY)
        self.marks: deque = deque(maxlen=MARK_CAPACITY)
        self._pending_ready: Dict[Any, Tuple[float, int]] = {}
        self._enqueued: Dict[Any, Tuple[float, str]] = {}
        self._harvested: Dict[int, Dict[str, Any]] = {}

    def _bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    # -- hooks, in causal order ------------------------------------

    def packet(self, now: float, segments: int) -> None:
        """Net stack delivered ``segments`` to the host (softirq rx)."""
        if not self.enabled:
            return
        self._bump("packets_rx", segments)

    def ready(self, now: float, file: Any, band: int) -> None:
        """A File turned ready (File.notify); first stamp wins."""
        if not self.enabled:
            return
        self._bump("ready_notifications")
        if file not in self._pending_ready:
            self._pending_ready[file] = (now, band)

    def enqueue(self, now: float, file: Any, via: str) -> None:
        """A kernel subsystem queued the event (epoll/devpoll/rtsig)."""
        if not self.enabled:
            return
        self._bump(f"enqueue_{via}")
        self._enqueued[file] = (now, via)

    def rtsig_overflow(self, now: float, fd: int) -> None:
        """The RT-signal queue was full; the per-fd signal was lost."""
        if not self.enabled:
            return
        self._bump("rtsig_overflows")
        self.marks.append({"t": now, "name": "rtsig_overflow", "fd": fd})

    def harvest(self, now: float, backend: str, events: List[Tuple[int, int]],
                task: Any, registered: int) -> None:
        """A backend ``wait()`` returned ``events`` over ``registered``
        watched fds.  Joins fd-space events to File-space readiness."""
        if not self.enabled:
            return
        self._bump("waits")
        self._bump("registered_scanned", registered)
        real = 0
        for fd, band in events:
            if fd < 0:          # rtsig overflow sentinel, not an fd
                continue
            real += 1
            self._bump("events_harvested")
            chain: Dict[str, Any] = {"fd": fd, "band": band,
                                     "backend": backend, "harvest": now}
            file = task.fdtable.lookup(fd) if task is not None else None
            if file is not None:
                pending = self._pending_ready.pop(file, None)
                if pending is not None:
                    chain["ready"] = pending[0]
                    self.wakeup_latency.record(
                        (now - pending[0]) * 1000.0)
                else:
                    self._bump("harvest_unmatched")
                queued = self._enqueued.pop(file, None)
                if queued is not None:
                    chain["enqueue"] = queued[0]
                    chain["via"] = queued[1]
            else:
                self._bump("harvest_unresolved")
            self._harvested[fd] = chain
        if real == 0:
            self._bump("spurious_waits")

    def dispatch(self, now: float, fd: int) -> None:
        """The server loop started handling a harvested event."""
        if not self.enabled:
            return
        self._bump("dispatches")
        chain = self._harvested.get(fd)
        if chain is not None and "dispatch" not in chain:
            chain["dispatch"] = now

    def reply(self, now: float, fd: int) -> None:
        """The server finished a response on ``fd``; close the chain."""
        if not self.enabled:
            return
        self._bump("replies")
        chain = self._harvested.pop(fd, None)
        if chain is None:
            return
        chain["reply"] = now
        if "ready" in chain:
            self.path_latency.record((now - chain["ready"]) * 1000.0)
        self.chains.append(chain)

    def stale(self, now: float, fd: int) -> None:
        """A harvested event referred to a dead/closed connection."""
        if not self.enabled:
            return
        self._bump("stale_dispatches")
        self._harvested.pop(fd, None)
        self.marks.append({"t": now, "name": "stale_event", "fd": fd})

    def recovery(self, now: float, conns: int = 0) -> None:
        """SIGIO forced the rtsig server into poll()-based recovery."""
        if not self.enabled:
            return
        self._bump("sigio_recovery_episodes")
        self.marks.append({"t": now, "name": "sigio_recovery",
                           "conns": conns})

    # -- export ----------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Deterministic JSON-ready rollup of the whole run."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "wakeup_latency": self.wakeup_latency.summary(),
            "path_latency": self.path_latency.summary(),
            "pending_ready": len(self._pending_ready),
            "pending_enqueued": len(self._enqueued),
            "abandoned_chains": len(self._harvested),
        }


#: Shared disabled ledger -- the kernel default, like NULL_TRACER.
NULL_LEDGER = CausalLedger(enabled=False)


def _round9(value: float) -> float:
    return round(float(value), 9)


def _backend_stats_dict(backend: Any) -> Optional[Dict[str, Any]]:
    stats = getattr(backend, "stats", None)
    if stats is None:
        return None
    return {
        "name": getattr(backend, "name", "?"),
        "waits": stats.waits,
        "events": stats.events,
        "spurious_wakeups": stats.spurious_wakeups,
        "registered_sum": stats.registered_sum,
        "registers": stats.registers,
        "modifies": stats.modifies,
        "unregisters": stats.unregisters,
    }


def _iter_servers(server: Any):
    """Yield the concrete server(s) behind a point's top-level object.

    ``server`` may be a plain server, a phhttpd server with a poll
    sibling, or a WorkerPool wrapping per-worker servers.
    """
    workers = getattr(server, "workers", None)
    if workers:
        for worker in workers:
            inner = getattr(worker, "server", worker)
            yield from _iter_servers(inner)
        return
    yield server
    sibling = getattr(server, "sibling", None)
    if sibling is not None:
        yield sibling


def collect_pathologies(server: Any, kernel: Any) -> Dict[str, Any]:
    """Assemble the per-point pathology block for records and reports.

    Everything here is read-only introspection of simulation state
    after the run ended; all lookups are guarded so every server shape
    (plain, phhttpd + sibling, WorkerPool) produces a block.
    """
    block: Dict[str, Any] = {"causal": kernel.causal.summary()}

    backends = []
    servers_stats = []
    signal_queues = []
    rtsig_modes = []
    for srv in _iter_servers(server):
        backend = getattr(srv, "backend", None)
        stats = _backend_stats_dict(backend) if backend is not None else None
        if stats is not None:
            backends.append(stats)
        srv_stats = getattr(srv, "stats", None)
        if srv_stats is not None:
            servers_stats.append({
                "stale_events": getattr(srv_stats, "stale_events", 0),
                "loops": getattr(srv_stats, "loops", 0),
                "responses": getattr(srv_stats, "responses", 0),
            })
        task = getattr(srv, "task", None)
        queue = getattr(task, "signal_queue", None) if task else None
        qstats = getattr(queue, "stats", None)
        if qstats is not None and (qstats.posted or qstats.dropped):
            signal_queues.append({
                "posted": qstats.posted,
                "dropped": qstats.dropped,
                "overflows": qstats.overflows,
                "dequeued": qstats.dequeued,
                "max_depth": qstats.max_depth,
            })
        mode = getattr(srv, "mode", None)
        if mode is not None and hasattr(srv, "overflow_at"):
            rtsig_modes.append({
                "mode": mode,
                "overflow_at": srv.overflow_at,
                "takeover_at": getattr(srv, "takeover_at", None),
                "handoffs": getattr(srv, "handoffs", 0),
            })
        epoll_file = getattr(backend, "epoll_file", None)
        estats = getattr(epoll_file, "stats", None)
        if estats is not None:
            block["epoll"] = {
                "ready_checks_cached": estats.ready_checks_cached,
                "ready_checks_hinted": estats.ready_checks_hinted,
                "ready_checks_nohint": estats.ready_checks_nohint,
                "auto_removed_closed": estats.auto_removed_closed,
                "events_returned": estats.events_returned,
            }
        dp_fd = getattr(backend, "dp_fd", None)
        if dp_fd is not None and task is not None:
            dp_file = task.fdtable.lookup(dp_fd)
            dstats = getattr(dp_file, "stats", None)
            if dstats is not None:
                block["devpoll"] = {
                    "callbacks_ready_recheck":
                        dstats.driver_callbacks_ready_recheck,
                    "callbacks_hinted": dstats.driver_callbacks_hinted,
                    "callbacks_full": dstats.driver_callbacks_full,
                    "results_returned": dstats.results_returned,
                    "results_via_mmap": dstats.results_via_mmap,
                }

    if backends:
        block["backends"] = backends
    if servers_stats:
        block["server"] = servers_stats[0] if len(servers_stats) == 1 \
            else servers_stats
    if signal_queues:
        block["signal_queue"] = signal_queues[0] if len(signal_queues) == 1 \
            else signal_queues
    if rtsig_modes:
        block["rtsig_server"] = rtsig_modes[0] if len(rtsig_modes) == 1 \
            else rtsig_modes

    smp = getattr(kernel, "smp", None)
    if smp is not None:
        block["smp"] = {
            "bkl_wait_s": _round9(smp.bkl.wait_seconds),
            "bkl_contended": smp.bkl.contended,
            "rwlock_wait_rd_s": _round9(
                smp.backmap_rwlock.read_wait_seconds),
            "rwlock_wait_wr_s": _round9(
                smp.backmap_rwlock.write_wait_seconds),
        }
    return block


def _chain_events(chain: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Chrome 'X' (complete) events for one chain's consecutive hops."""
    hops = [name for name in HOP_ORDER if name in chain]
    args = {"fd": chain["fd"], "band": chain["band"]}
    if "via" in chain:
        args["via"] = chain["via"]
    events = []
    for first, second in zip(hops, hops[1:]):
        start, end = chain[first], chain[second]
        events.append({
            "ph": "X",
            "name": f"{first}->{second}",
            "cat": "causal",
            "pid": 0,
            "tid": 1,
            "ts": round(start * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": args,
        })
    return events


def chrome_trace_events(ledger: CausalLedger,
                        tracer: Any = None) -> List[Dict[str, Any]]:
    """Build the Chrome trace-event list (deterministic, no wall clock).

    Timestamps are simulated seconds scaled to microseconds, the unit
    chrome://tracing and Perfetto expect.  Causality chains render as
    'X' complete events on the ``causal`` track; ledger marks render as
    'i' instants; optional SpanTracer spans ride along on per-track
    threads numbered by first appearance (deterministic).
    """
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": "repro server host"}},
        {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1,
         "args": {"name": "causal chains"}},
    ]
    for chain in ledger.chains:
        events.extend(_chain_events(chain))
    for mark in ledger.marks:
        args = {key: value for key, value in mark.items()
                if key not in ("t", "name")}
        events.append({
            "ph": "i", "name": mark["name"], "cat": "causal",
            "pid": 0, "tid": 1, "s": "t",
            "ts": round(mark["t"] * 1e6, 3), "args": args,
        })
    if tracer is not None and getattr(tracer, "enabled", False):
        tids: Dict[str, int] = {}
        for span in tracer.spans():
            # SMP kernels track spans by (process, cpu); name the track
            # without ever repr()-ing a process (memory addresses would
            # break byte-determinism)
            raw = span.track
            if isinstance(raw, tuple) and raw:
                raw = raw[0]
            if raw is None:
                track = "spans"
            else:
                track = getattr(raw, "name", None) or raw.__class__.__name__
            if track not in tids:
                tids[track] = 10 + len(tids)
                events.append({
                    "ph": "M", "name": "thread_name", "pid": 0,
                    "tid": tids[track], "args": {"name": f"span:{track}"}})
            args = {key: value for key, value in (span.attrs or {}).items()
                    if isinstance(value, (str, int, float, bool))}
            events.append({
                "ph": "X", "name": f"{span.subsystem}.{span.name}",
                "cat": "span", "pid": 0, "tid": tids[track],
                "ts": round(span.start * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "args": args,
            })
    return events


def export_chrome_trace(path: str, ledger: CausalLedger,
                        tracer: Any = None) -> int:
    """Write a Chrome trace-event JSON file; returns the event count.

    The output is byte-deterministic for a given run: sorted keys,
    two-space indent, trailing newline, and no wall-clock anywhere --
    identical seeds produce identical files.
    """
    events = chrome_trace_events(ledger, tracer)
    payload = {
        "displayTimeUnit": "ms",
        "metadata": {"tool": "repro trace",
                     "summary": ledger.summary()},
        "traceEvents": events,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(events)
