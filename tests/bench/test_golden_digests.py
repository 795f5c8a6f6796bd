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
* ``rtsig_overflow`` -- phhttpd with a 32-deep RT-signal queue: the
  queue overflows, SIGIO fires and the poll sibling takes over.
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

GOLDEN = {
    "smp_overload": (
        SMP_OVERLOAD,
        "2a98699bf63507bbd66d9da1a54757ea3b638f689630d550ef10b8174b1102b4"),
    "smp_overload_traced": (
        replace(SMP_OVERLOAD, trace=True),
        "dd413551d681329cf8f4be00c9426f6c57b3367d4231624275789fdb7d34db42"),
    "smp_overload_poll": (
        replace(SMP_OVERLOAD_SHORT, server="thttpd"),
        "75c69342704e82189e1e4dc3425679036ddd118c5a18499cd9fddeb9f92043ae"),
    "smp_overload_devpoll": (
        replace(SMP_OVERLOAD_SHORT, server="thttpd-devpoll"),
        "34712ef6b42ae0f217b2d695c50aee3ccd2b4d00070a1619824f667c27b5d9e1"),
    "smp_overload_epoll": (
        replace(SMP_OVERLOAD_SHORT, server="thttpd-epoll"),
        "97bce3620d31bb85b52a6a70b035bf4d62f8c74513c1bf3e4ad01a836fa049bc"),
    "smp2_unpinned": (
        BenchmarkPoint(server="thttpd", rate=1500.0, inactive=64,
                       duration=0.3, timeout=1.0, cpus=2),
        "1aea8548f1688d91073deaedb91d32eece54c119ea70aeb900008bb9ee933664"),
    "poll": (
        UNIPROCESSOR,
        "edce7857e4d99a6a08c5a31a9aa28e7d5e08cee6ecb1e0bb619943c75c319b76"),
    "poll_traced": (
        replace(UNIPROCESSOR, trace=True),
        "e234d2859115160807316290e47ff2f7522eccc77d1de5309a49d52aaaebf387"),
    "select": (
        replace(UNIPROCESSOR, server="thttpd-select"),
        "0284d0a346692f823e39ddaa89fac4da6268edf021a9378dc5a73c37ccc83886"),
    "select_traced": (
        replace(UNIPROCESSOR, server="thttpd-select", trace=True),
        "c9b968f14ad99cd8b61f7097269c4e20b76f696d7792cffebec041c2f4d17c4e"),
    "rtsig_overflow": (
        RTSIG_OVERFLOW,
        "1ebb18ea78323c0c631ca0307e0c2c7d7c617c3f044c5b156489776f529104e7"),
    "rtsig_overflow_traced": (
        replace(RTSIG_OVERFLOW, trace=True),
        "c674792f164d017679ca6561337cb0fb6a0330862b102e02a76523fa21a924a0"),
}

#: traced point -> its untraced twin
TWINS = {name: name[:-len("_traced")]
         for name in GOLDEN if name.endswith("_traced")}


def record_digest(record):
    canon = {k: v for k, v in record.items() if k not in UNPINNED}
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def records():
    return {name: point_record(run_point(point))
            for name, (point, _digest) in GOLDEN.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_record_matches_golden_digest(records, name):
    assert record_digest(records[name]) == GOLDEN[name][1], (
        f"{name}: a simulated measurement moved")


def test_points_reach_their_regimes(records):
    """Guard the pins' meaning: each point still overloads the way it
    was chosen to."""
    for name in ("smp_overload", "smp_overload_poll",
                 "smp_overload_devpoll", "smp_overload_epoll"):
        assert records[name]["errors"]["timeouts"] > 0, name
    assert records["smp2_unpinned"]["cpus"] == 2
    rtsig = records["rtsig_overflow_traced"]["pathologies"]
    assert rtsig["signal_queue"]["overflows"] > 0


def test_traced_twin_measures_what_the_untraced_point_does(records):
    assert sorted(TWINS) == ["poll_traced", "rtsig_overflow_traced",
                             "select_traced", "smp_overload_traced"]
    for traced_name, plain_name in TWINS.items():
        traced = dict(records[traced_name])
        traced.pop("pathologies")
        assert record_digest(traced) == record_digest(records[plain_name]), (
            f"{traced_name} measured differently from {plain_name}")
