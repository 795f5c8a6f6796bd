"""Tests for the event-causality ledger and Chrome trace export."""

import json

import pytest

from repro.bench.harness import BACKEND_TO_KIND, BenchmarkPoint, run_point
from repro.bench.records import point_record
from repro.kernel.constants import POLLIN
from repro.obs.causal import (
    CHAIN_CAPACITY,
    MARK_CAPACITY,
    CausalLedger,
    chrome_trace_events,
    collect_pathologies,
    export_chrome_trace,
)
from repro.obs.latency import REPORT_QUANTILES
from repro.obs.spans import SpanTracer


def _run(trace, backend=None, **kwargs):
    point = BenchmarkPoint(server="thttpd-devpoll", backend=backend,
                           rate=150.0, inactive=5, duration=2.0, seed=3,
                           trace=trace, **kwargs)
    return run_point(point)


# ---------------------------------------------------------------------------
# ledger units
# ---------------------------------------------------------------------------

class _FdTable:
    def __init__(self, mapping):
        self._mapping = mapping

    def lookup(self, fd):
        return self._mapping.get(fd)


class _Task:
    def __init__(self, mapping):
        self.fdtable = _FdTable(mapping)


def test_disabled_ledger_is_inert():
    ledger = CausalLedger(enabled=False)
    file = object()
    ledger.packet(0.0, 3)
    ledger.ready(0.0, file, POLLIN)
    ledger.enqueue(0.0, file, "epoll")
    ledger.harvest(0.0, "epoll", [(5, POLLIN)], _Task({5: file}), 10)
    ledger.reply(0.0, 5)
    assert ledger.counters == {}
    assert not ledger.chains and not ledger.marks
    assert ledger.summary()["wakeup_latency"] is None


def test_ledger_joins_full_chain():
    ledger = CausalLedger(enabled=True)
    file = object()
    task = _Task({5: file})
    ledger.ready(1.0, file, POLLIN)
    ledger.enqueue(1.00001, file, "epoll")
    ledger.harvest(1.00002, "epoll", [(5, POLLIN)], task, registered=10)
    ledger.dispatch(1.00003, 5)
    ledger.reply(1.00004, 5)
    assert len(ledger.chains) == 1
    chain = ledger.chains[0]
    assert chain["fd"] == 5 and chain["via"] == "epoll"
    assert chain["ready"] < chain["enqueue"] < chain["harvest"] \
        < chain["dispatch"] < chain["reply"]
    assert ledger.wakeup_latency.count == 1
    assert ledger.wakeup_latency.max() == pytest.approx(0.02, rel=1e-3)  # ms
    assert ledger.path_latency.count == 1
    assert ledger.path_latency.max() == pytest.approx(0.04, rel=1e-3)
    assert ledger.counters["registered_scanned"] == 10
    assert ledger.summary()["abandoned_chains"] == 0


def test_spurious_waits_and_overflow_sentinel():
    ledger = CausalLedger(enabled=True)
    ledger.harvest(1.0, "rtsig", [], _Task({}), registered=4)
    ledger.harvest(2.0, "rtsig", [(-1, 0)], _Task({}), registered=4)
    assert ledger.counters["spurious_waits"] == 2
    assert "events_harvested" not in ledger.counters


def test_stale_drops_the_chain():
    ledger = CausalLedger(enabled=True)
    file = object()
    ledger.ready(1.0, file, POLLIN)
    ledger.harvest(1.1, "poll", [(7, POLLIN)], _Task({7: file}), 2)
    ledger.stale(1.2, 7)
    ledger.reply(1.3, 7)  # after stale: nothing left to close
    assert ledger.counters["stale_dispatches"] == 1
    assert len(ledger.chains) == 0
    assert ledger.marks[-1]["name"] == "stale_event"


def test_export_counts_what_the_ledger_rings_evict(tmp_path):
    ledger = CausalLedger(enabled=True)
    for i in range(CHAIN_CAPACITY + 5):
        ledger.harvest(i, "poll", [(7, POLLIN)], None, 1)
        ledger.reply(i, 7)
    for i in range(MARK_CAPACITY + 5):
        ledger.stale(i, 7)
    assert len(ledger.chains) == CHAIN_CAPACITY
    assert ledger.chains[0]["reply"] == 5  # the five oldest went
    path = tmp_path / "trace.json"
    export_chrome_trace(str(path), ledger)
    metadata = json.loads(path.read_text())["metadata"]
    assert metadata["evicted_chains"] == 5
    assert metadata["evicted_marks"] == 5
    # the summary, which point records embed, leaves them out
    assert "evicted" not in json.dumps(metadata["summary"])


# ---------------------------------------------------------------------------
# end-to-end: every backend produces a valid trace + unified stats
# ---------------------------------------------------------------------------

# the live-* backends run on real sockets with no causal ledger;
# tests/runtime/ covers them
@pytest.mark.parametrize("backend", sorted(
    name for name in BACKEND_TO_KIND if not name.startswith("live-")))
def test_trace_and_unified_stats_per_backend(backend, tmp_path):
    result = _run(trace=True, backend=backend)
    assert result.reply_rate.avg > 0

    # satellite: every backend reports the same unified counter set
    pathologies = result.pathologies
    assert pathologies is not None
    stats = pathologies["backends"][0]
    assert stats["name"] == backend
    assert stats["waits"] > 0
    assert stats["registered_sum"] > 0
    assert stats["spurious_wakeups"] >= 0
    for key in ("events", "registers", "modifies", "unregisters"):
        assert key in stats

    counters = pathologies["causal"]["counters"]
    assert counters["waits"] > 0
    assert counters["events_harvested"] > 0
    assert counters["replies"] > 0
    assert pathologies["causal"]["wakeup_latency"]["count"] > 0

    # the Chrome trace is non-empty, well-phased, and loadable
    out = tmp_path / f"trace_{backend}.json"
    count = export_chrome_trace(str(out), result.testbed.causal,
                                tracer=result.testbed.tracer)
    trace = json.loads(out.read_text())
    events = trace["traceEvents"]
    assert len(events) == count > 0
    assert {e["ph"] for e in events} <= {"X", "i", "M"}
    chains = [e for e in events
              if e.get("cat") == "causal" and e["ph"] == "X"]
    assert chains, "no causality chain spans"
    names = {e["name"] for e in chains}
    assert "harvest->dispatch" in names
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in chains)


def test_trace_export_is_byte_deterministic(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        result = _run(trace=True)
        path = tmp_path / name
        export_chrome_trace(str(path), result.testbed.causal,
                            tracer=result.testbed.tracer)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_chrome_events_include_spans_on_named_tracks():
    result = _run(trace=True)
    events = chrome_trace_events(result.testbed.causal,
                                 tracer=result.testbed.tracer)
    span_events = [e for e in events if e.get("cat") == "span"]
    assert span_events  # the harness's ramp/measure spans at minimum
    span_tids = {e["tid"] for e in span_events}
    thread_names = [e for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"]
    assert span_tids <= {e["tid"] for e in thread_names}


def test_chrome_export_carries_point_events_and_drops(tmp_path):
    tracer = SpanTracer(enabled=True, capacity=3)
    tracer.trace(0.001, "poll", "scan n=1 ready=0")
    span = tracer.begin(0.002, "bench", "measure")
    tracer.end(0.003, span)
    tracer.trace(0.004, "rtsig", "queue overflow")
    tracer.trace(0.005, "poll", "scan n=2 ready=1")  # evicts the first
    path = tmp_path / "trace.json"
    export_chrome_trace(str(path), CausalLedger(enabled=True), tracer=tracer)
    trace = json.loads(path.read_text())
    assert trace["metadata"]["dropped"] == 1
    events = trace["traceEvents"]
    instants = [e for e in events if e.get("cat") == "event"]
    assert [(e["ph"], e["name"], e["ts"], e["args"]["message"])
            for e in instants] == [
        ("i", "rtsig", 4000.0, "queue overflow"),
        ("i", "poll", 5000.0, "scan n=2 ready=1")]
    # the instants sit on a named track of their own
    (tid,) = {e["tid"] for e in instants}
    tracks = {e["tid"]: e["args"]["name"] for e in events
              if e["ph"] == "M" and e["name"] == "thread_name"}
    assert tracks[tid] == "point events"
    assert tid not in {e["tid"] for e in events
                       if e.get("cat") in ("span", "causal")}


# ---------------------------------------------------------------------------
# the zero-cost contract
# ---------------------------------------------------------------------------

def test_tracing_changes_no_measurement():
    bare = _run(trace=False)
    traced = _run(trace=True)
    assert traced.reply_rate.avg == bare.reply_rate.avg
    assert traced.error_percent == bare.error_percent
    record_bare = point_record(bare)
    record_traced = point_record(traced)
    record_traced.pop("pathologies")
    assert record_traced == record_bare


def test_traced_point_reports_wakeup_latency_percentiles_in_ms():
    record = point_record(_run(trace=True))
    wakeup = record["pathologies"]["causal"]["wakeup_latency"]
    names = [name for name, _q in REPORT_QUANTILES]
    assert list(wakeup) == ["count", "min", "mean", "max", *names]
    assert wakeup["count"] > 0
    assert wakeup["min"] <= wakeup["mean"] <= wakeup["max"]
    assert ([wakeup[name] for name in names]
            == sorted(wakeup[name] for name in names))
    # in ms: at 150 req/s the typical wakeup takes tens of microseconds,
    # and none outlasts the 2 s run
    assert 0.0 < wakeup["p50"] < 1.0
    assert wakeup["max"] < 2000.0


def test_record_carries_pathologies_only_when_traced():
    traced = point_record(_run(trace=True))
    assert traced["pathologies"]["causal"]["counters"]["waits"] > 0
    assert "pathologies" not in point_record(_run(trace=False))


# ---------------------------------------------------------------------------
# the devpoll and epoll blocks cover every server
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("server,key,returned", [
    ("thttpd-devpoll", "devpoll", "results_returned"),
    ("thttpd-epoll", "epoll", "events_returned")])
def test_ready_list_block_sums_a_worker_pool(server, key, returned):
    result = run_point(BenchmarkPoint(
        server=server, rate=800.0, inactive=8, duration=0.5, seed=3,
        cpus=2, workers=2, trace=True))
    kernel = result.testbed.server_kernel
    per_worker = [collect_pathologies(worker, kernel)[key]
                  for worker in result.server.workers]
    assert len(per_worker) == 2
    assert all(block[returned] > 0 for block in per_worker)
    assert result.pathologies[key] == {
        name: sum(block[name] for block in per_worker)
        for name in per_worker[0]}


def test_hybrid_reports_its_devpoll_block():
    """The hybrid's /dev/poll interest set serves its polling mode."""
    result = run_point(BenchmarkPoint(
        server="hybrid", rate=400.0, inactive=12, duration=2.0, seed=3,
        trace=True, server_opts={"rtsig_max": 4}))
    server = result.server
    stats = server.task.fdtable.lookup(server.dp_fd).stats
    devpoll = result.pathologies["devpoll"]
    assert devpoll["callbacks_hinted"] == stats.driver_callbacks_hinted > 0
    assert devpoll["results_returned"] == stats.results_returned > 0


# ---------------------------------------------------------------------------
# satellite: the paper's overflow -> SIGIO -> poll() recovery sequence
# ---------------------------------------------------------------------------

def test_rtsig_overflow_recovery_pathology_counters():
    """Section 6 on the ledger: a tiny RT queue overflows, SIGIO fires,
    and the poll sibling takes over permanently -- every step counted."""
    result = run_point(BenchmarkPoint(
        server="phhttpd", rate=400.0, inactive=12, duration=2.0, seed=3,
        trace=True,
        server_opts={"rtsig_max": 4, "idle_timeout": 30.0}))
    pathologies = result.pathologies
    queue = pathologies["signal_queue"]
    assert queue["dropped"] >= 1          # signals lost to the full queue
    assert queue["overflows"] >= 1        # each drop raised SIGIO intent
    counters = pathologies["causal"]["counters"]
    assert counters["rtsig_overflows"] >= 1
    assert counters["sigio_recovery_episodes"] == 1  # never switches back
    rtsig = pathologies["rtsig_server"]
    assert rtsig["mode"] == "polling"
    assert rtsig["overflow_at"] is not None
    assert rtsig["takeover_at"] is not None
    assert rtsig["overflow_at"] <= rtsig["takeover_at"]
    assert rtsig["handoffs"] >= 1
    # the ledger's marks preserve the causal order of the meltdown
    marks = list(result.testbed.causal.marks)
    first_overflow = next(i for i, m in enumerate(marks)
                          if m["name"] == "rtsig_overflow")
    recovery = next(i for i, m in enumerate(marks)
                    if m["name"] == "sigio_recovery")
    assert first_overflow < recovery
    # service continued: the sibling answered requests after takeover
    assert result.reply_rate.avg > 0
    assert result.server_stats.responses > 0
