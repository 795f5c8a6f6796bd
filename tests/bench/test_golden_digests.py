"""Golden digests for regimes the smoke baseline never reaches.

``test_baseline.py`` pins four light-load points at 150 req/s, where
nothing overloads.  The points below are short but each drives a regime
the paper cares about, and each record is pinned as a digest: the
sha256 of its canonical JSON minus the host-time fields and the
engine-internal ``sim_events`` count.  A change to the engine, the
kernel model or a server that moves any simulated measurement in these
regimes fails here, byte-exact.

* ``smp_overload`` -- select() on 4 CPUs x 4 ``SO_REUSEPORT`` workers,
  well past the knee: the listen backlogs overflow, SYNs are dropped and
  the client times out on them (BKL contention, reuseport sharding).
  ``smp_overload_{poll,devpoll,epoll}`` are the same shape, shorter, on
  the other thttpd backends: the BKL held for an O(watched) scan versus
  an O(ready) harvest.
* ``smp2_unpinned`` -- one thttpd process on a 2-CPU host, placed by
  the scheduler rather than pinned by a worker pool.
* ``poll``/``select`` -- uniprocessor thttpd on poll() and select()
  with idle connections: the fused array-build/scan/copyout grants.
* ``overload_{poll,select,devpoll,epoll}`` -- uniprocessor thttpd on
  each backend, past the knee with idle connections: the client times
  out while the O(watched) scans or the O(ready) harvests run flat out.
  ``overload_{phhttpd,hybrid}`` are the same shape on the RT-signal
  servers, past the knee without a queue overflow.
* ``light_{select,epoll,hybrid}`` -- the smoke suite's light shape
  (150 req/s, 50 idle) on the servers the smoke baseline leaves out.
* ``bigdoc_{poll,select,phhttpd,hybrid}`` -- 64 KB documents: each
  reply outgrows the 16 KB send buffer, so the server writes it in
  several ``write()`` calls and waits on ``POLLOUT`` between them.
* ``sweep_select`` -- with a 1 s idle timeout, thttpd's sweep closes
  the idle connections; they reconnect and reuse the freed descriptors.
* ``devpoll_nohints`` -- ``/dev/poll`` with the driver hints off, so
  every ``DP_POLL`` calls every interest's driver poll callback.
* ``rtsig_overflow`` -- phhttpd with a 32-deep RT-signal queue: the
  queue overflows, SIGIO fires and the poll sibling takes over.
  ``rtsig_overflow_batch`` dequeues ``sigtimedwait4`` batches of 8.
  ``hybrid_rtsig_overflow`` is the same shape on the hybrid server,
  which falls back to its ``/dev/poll`` interest set instead;
  ``hybrid_parked`` never calms down enough to switch back.
* ``*_traced`` -- traced twins.  Tracing observes and never charges, so
  each must measure exactly what its untraced point does; the twins are
  compared record for record as well as pinned.

The SMP and traced digests were pinned while those runs still charged
step by step, so they are the reference a fused grant must reproduce.
To re-pin after a change that is *meant* to move a record, print
``record_digest(point_record(run_point(point)))`` for each point and
say why in the change description.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.bench.harness import BenchmarkPoint, run_point
from repro.bench.records import WALL_CLOCK_FIELDS, point_record
from repro.core.devpoll import DevPollConfig
from repro.net.link import ETHERNET_GIGABIT

#: record keys that measure the host or the engine's bookkeeping
UNPINNED = frozenset(WALL_CLOCK_FIELDS) | {"sim_events"}

SMP_OVERLOAD = BenchmarkPoint(
    server="thttpd-select", rate=4000.0, inactive=128, duration=0.5,
    timeout=1.0, cpus=4, workers=4, bandwidth_bps=ETHERNET_GIGABIT,
    server_opts={"idle_timeout": 3600.0})
SMP_OVERLOAD_SHORT = replace(SMP_OVERLOAD, duration=0.2)
RTSIG_OVERFLOW = BenchmarkPoint(
    server="phhttpd", rate=800.0, inactive=128, duration=1.0,
    server_opts={"rtsig_max": 32})
UNIPROCESSOR = BenchmarkPoint(
    server="thttpd", rate=1000.0, inactive=64, duration=0.3)
UNIPROCESSOR_OVERLOAD = replace(UNIPROCESSOR, rate=4000.0)
BIGDOC = replace(UNIPROCESSOR, rate=300.0, document_bytes=65536)
LIGHT = BenchmarkPoint(server="thttpd", rate=150.0, inactive=50,
                       duration=1.5)

GOLDEN = {
    "smp_overload": (
        SMP_OVERLOAD,
        "2a98699bf63507bbd66d9da1a54757ea3b638f689630d550ef10b8174b1102b4"),
    "smp_overload_traced": (
        replace(SMP_OVERLOAD, trace=True),
        "19311c5fd3c2323a5b20502906ce12efef0a4675cd397415a8a7b49c6ce97cc9"),
    "smp_overload_poll": (
        replace(SMP_OVERLOAD_SHORT, server="thttpd"),
        "75c69342704e82189e1e4dc3425679036ddd118c5a18499cd9fddeb9f92043ae"),
    "smp_overload_poll_traced": (
        replace(SMP_OVERLOAD_SHORT, server="thttpd", trace=True),
        "8c3b5e989f60fd161a3a7c16c41a114511d1a2bb418185ada37d70bad1900ca6"),
    "smp_overload_devpoll": (
        replace(SMP_OVERLOAD_SHORT, server="thttpd-devpoll"),
        "34712ef6b42ae0f217b2d695c50aee3ccd2b4d00070a1619824f667c27b5d9e1"),
    "smp_overload_devpoll_traced": (
        replace(SMP_OVERLOAD_SHORT, server="thttpd-devpoll", trace=True),
        "f494ba131c389eae1a48dab1e20c4f7390c66744cb00e647842ba8cd3eb937d2"),
    "smp_overload_epoll": (
        replace(SMP_OVERLOAD_SHORT, server="thttpd-epoll"),
        "97bce3620d31bb85b52a6a70b035bf4d62f8c74513c1bf3e4ad01a836fa049bc"),
    "smp_overload_epoll_traced": (
        replace(SMP_OVERLOAD_SHORT, server="thttpd-epoll", trace=True),
        "3cdb8fae1b74b7fa58bd9eb9bacc4888357302a962973ec8b0458ba2b55972b0"),
    "smp2_unpinned": (
        BenchmarkPoint(server="thttpd", rate=1500.0, inactive=64,
                       duration=0.3, timeout=1.0, cpus=2),
        "1aea8548f1688d91073deaedb91d32eece54c119ea70aeb900008bb9ee933664"),
    "poll": (
        UNIPROCESSOR,
        "edce7857e4d99a6a08c5a31a9aa28e7d5e08cee6ecb1e0bb619943c75c319b76"),
    "poll_traced": (
        replace(UNIPROCESSOR, trace=True),
        "f1fe6f547a9900dc5e8ad93005f7b9c651f851fc51d2c6cf2594d69b6911163a"),
    "select": (
        replace(UNIPROCESSOR, server="thttpd-select"),
        "0284d0a346692f823e39ddaa89fac4da6268edf021a9378dc5a73c37ccc83886"),
    "select_traced": (
        replace(UNIPROCESSOR, server="thttpd-select", trace=True),
        "746388da75e8cf525bfb19be28e76097e426d1dd3ea2dd6b8b6b6cb004d2d90f"),
    "overload_poll": (
        UNIPROCESSOR_OVERLOAD,
        "a2244389144ba9385d2d79a21ad9f33417fdc8ba4a6dff9c1a575d6220783778"),
    "overload_select": (
        replace(UNIPROCESSOR_OVERLOAD, server="thttpd-select"),
        "532bdb7dca65469bbc217856e22fe8b43dd6dae82a4389c3dd8b9ecebd510f81"),
    "bigdoc_poll": (
        BIGDOC,
        "7f838b137db6f65f303a5389b6a001f59979ac8406be4391cf220f3ca899f1ae"),
    "bigdoc_select": (
        replace(BIGDOC, server="thttpd-select"),
        "6b9f319b2a9d2ac4a46c6d2aae76a15ba7ee061963f2b08c781bf227577f6cf2"),
    "sweep_select": (
        replace(UNIPROCESSOR, server="thttpd-select", rate=300.0,
                duration=3.0, server_opts={"idle_timeout": 1.0}),
        "34f8eb3c02f1c742bdc76b9525c69d5af3e160149468eb34e8bde56a78ba7f27"),
    "devpoll_nohints": (
        replace(UNIPROCESSOR, server="thttpd-devpoll",
                server_opts={"devpoll": DevPollConfig(use_hints=False)}),
        "ab430a392f1320ffbaad0bfa09474ae5d71dfed1b1b33b4f77babe4d0d76e23b"),
    "overload_devpoll": (
        replace(UNIPROCESSOR_OVERLOAD, server="thttpd-devpoll"),
        "7d9c524a7ad3a4265a6a5f2c41541a8c00187454d42f17eac0515b3fe7e34d31"),
    "overload_devpoll_traced": (
        replace(UNIPROCESSOR_OVERLOAD, server="thttpd-devpoll", trace=True),
        "2946eff8aa1a96e3e87fe2baa4d83fd627e2d8b4e6c5b23a041d700a74769b0d"),
    "overload_epoll": (
        replace(UNIPROCESSOR_OVERLOAD, server="thttpd-epoll"),
        "34077308596140b203b3ad0c3a44dab98b58501c9a2e36425736cea126fa2b44"),
    "overload_epoll_traced": (
        replace(UNIPROCESSOR_OVERLOAD, server="thttpd-epoll", trace=True),
        "52136f32c24cec916e3ecbf32eb70d899776f66ad9e7951a0b34e7d28db2a636"),
    "overload_phhttpd": (
        replace(UNIPROCESSOR_OVERLOAD, server="phhttpd"),
        "99c49156761f29553ab282c87e70ed3ab24a32ce5190967fcbfd90bfde919658"),
    "overload_hybrid": (
        replace(UNIPROCESSOR_OVERLOAD, server="hybrid"),
        "9e163d3e18f9cea88bd6712b97ea9da4fc0cdd49d9046874ebe528402a2a573a"),
    "light_select": (
        replace(LIGHT, server="thttpd-select"),
        "0706e64ce6e3ec64fc8132ce4cbacebac4c807fb4e0a72d909d35bb5af7d1e83"),
    "light_epoll": (
        replace(LIGHT, server="thttpd-epoll"),
        "76c81a2d3c2889e1233db2fab7e55e0ef5950eb18eef0a78137520b501bde400"),
    "light_hybrid": (
        replace(LIGHT, server="hybrid"),
        "8190abfa35d17805cc32abc3c67db333b1ded79aae8d459e19ca1dcbf0348fdd"),
    "bigdoc_phhttpd": (
        replace(BIGDOC, server="phhttpd"),
        "e50efa3b4b1199074fa0022138fa4958561238c1a8ebc4d9df5459718cf3b716"),
    "bigdoc_hybrid": (
        replace(BIGDOC, server="hybrid"),
        "c425ee778ab0eb69e6070e44c3b8dd4ce80bba3263475ba927eb8ea38fc2a565"),
    "rtsig_overflow": (
        RTSIG_OVERFLOW,
        "1ebb18ea78323c0c631ca0307e0c2c7d7c617c3f044c5b156489776f529104e7"),
    "rtsig_overflow_traced": (
        replace(RTSIG_OVERFLOW, trace=True),
        "8cf1f9e1523b0c8abc0d3288f9482668fd0a0fc655ff097e72f0249a819e3fa2"),
    "rtsig_overflow_batch": (
        replace(RTSIG_OVERFLOW,
                server_opts={"rtsig_max": 32, "signal_batch": 8}),
        "47945aef6c18df5bc51073279905f9c203dc8909f9d6b56bbbfd3fda52c8cabb"),
    "hybrid_rtsig_overflow": (
        replace(RTSIG_OVERFLOW, server="hybrid"),
        "a495e7798f971e694ac55f1cee65d8a302557813b77a07f63f0b710f481772ee"),
    "hybrid_rtsig_overflow_traced": (
        replace(RTSIG_OVERFLOW, server="hybrid", trace=True),
        "976fa2fbe8decf4f75d4dd2df162e7ad1b9fb3770af4751c309258f11506ef9a"),
    "hybrid_parked": (
        replace(RTSIG_OVERFLOW, server="hybrid",
                server_opts={"rtsig_max": 32, "calm_loops": 10**9}),
        "f63815fbbbc33cdaff0af389a59d37a1c87c5826db38d946582e3869a3047637"),
}

#: traced point -> its untraced twin
TWINS = {name: name[:-len("_traced")]
         for name in GOLDEN if name.endswith("_traced")}


def record_digest(record):
    canon = {k: v for k, v in record.items() if k not in UNPINNED}
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def runs():
    """name -> (record, ``write()`` calls made on the server host, RT
    signal-queue overflows of a single-process server's task)."""
    out = {}
    for name, (point, _digest) in GOLDEN.items():
        result = run_point(point)
        writes = result.testbed.server_kernel.metrics.snapshot()["sys.write"]
        task = getattr(result.server, "task", None)
        overflows = task.signal_queue.stats.overflows if task else None
        out[name] = (point_record(result), writes, overflows)
    return out


@pytest.fixture(scope="module")
def records(runs):
    return {name: record for name, (record, _writes, _ovf) in runs.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_record_matches_golden_digest(records, name):
    assert record_digest(records[name]) == GOLDEN[name][1], (
        f"{name}: a simulated measurement moved")


def test_points_reach_their_regimes(runs, records):
    """Guard the pins' meaning: each point still overloads the way it
    was chosen to."""
    for name in ("smp_overload", "smp_overload_poll",
                 "smp_overload_devpoll", "smp_overload_epoll",
                 "overload_poll", "overload_select",
                 "overload_devpoll", "overload_epoll",
                 "overload_phhttpd", "overload_hybrid"):
        assert records[name]["errors"]["timeouts"] > 0, name
    for name in ("overload_phhttpd", "overload_hybrid"):
        assert runs[name][2] == 0, name
    for name in ("bigdoc_poll", "bigdoc_select", "bigdoc_phhttpd",
                 "bigdoc_hybrid"):
        record, writes, _overflows = runs[name]
        assert writes > 2 * record["replies_ok"] > 0, name
    assert records["sweep_select"]["inactive_reconnects"] > 0
    assert records["smp2_unpinned"]["cpus"] == 2
    for name in ("rtsig_overflow_traced", "hybrid_rtsig_overflow_traced"):
        rtsig = records[name]["pathologies"]
        assert rtsig["signal_queue"]["overflows"] > 0, name
    assert runs["rtsig_overflow_batch"][2] > 0
    assert records["hybrid_parked"]["mode"] == "polling"


def test_traced_twin_measures_what_the_untraced_point_does(records):
    assert sorted(TWINS) == ["hybrid_rtsig_overflow_traced",
                             "overload_devpoll_traced",
                             "overload_epoll_traced", "poll_traced",
                             "rtsig_overflow_traced", "select_traced",
                             "smp_overload_devpoll_traced",
                             "smp_overload_epoll_traced",
                             "smp_overload_poll_traced",
                             "smp_overload_traced"]
    for traced_name, plain_name in TWINS.items():
        traced = dict(records[traced_name])
        traced.pop("pathologies")
        assert record_digest(traced) == record_digest(records[plain_name]), (
            f"{traced_name} measured differently from {plain_name}")


def test_traced_backends_account_every_harvest(records):
    """A traced point's backend blocks count exactly the waits the
    causal ledger stamped, one harvest per wait, on every server."""
    for name in TWINS:
        pathologies = records[name]["pathologies"]
        waits = sum(b["waits"] for b in pathologies["backends"])
        assert waits == pathologies["causal"]["counters"]["waits"] > 0, name
    hybrid = records["hybrid_rtsig_overflow_traced"]["pathologies"]
    assert [b["name"] for b in hybrid["backends"]] == ["hybrid"]
