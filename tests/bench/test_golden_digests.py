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
* ``rtsig_overflow`` -- phhttpd with a 32-deep RT-signal queue: the
  queue overflows, SIGIO fires and the poll sibling takes over.
* ``rtsig_overflow_traced`` -- the same point traced, which switches the
  uniprocessor charge path from fused to unfused grants.

To re-pin after a change that is *meant* to move a record, print
``record_digest(point_record(run_point(point)))`` for each point and say
why in the change description.
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
RTSIG_OVERFLOW = BenchmarkPoint(
    server="phhttpd", rate=800.0, inactive=128, duration=1.0,
    server_opts={"rtsig_max": 32})

GOLDEN = {
    "smp_overload": (
        SMP_OVERLOAD,
        "2a98699bf63507bbd66d9da1a54757ea3b638f689630d550ef10b8174b1102b4"),
    "rtsig_overflow": (
        RTSIG_OVERFLOW,
        "1ebb18ea78323c0c631ca0307e0c2c7d7c617c3f044c5b156489776f529104e7"),
    "rtsig_overflow_traced": (
        replace(RTSIG_OVERFLOW, trace=True),
        "c674792f164d017679ca6561337cb0fb6a0330862b102e02a76523fa21a924a0"),
}


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
    smp = records["smp_overload"]
    assert smp["errors"]["timeouts"] > 0
    rtsig = records["rtsig_overflow_traced"]["pathologies"]
    assert rtsig["signal_queue"]["overflows"] > 0


def test_traced_twin_measures_what_the_untraced_point_does(records):
    traced = dict(records["rtsig_overflow_traced"])
    traced.pop("pathologies")
    plain = records["rtsig_overflow"]
    assert record_digest(traced) == record_digest(plain)
