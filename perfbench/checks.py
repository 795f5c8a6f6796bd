"""Output checks and small numeric helpers of the benchmark.

Nothing here imports ``repro``: the checks see plain records and bytes,
so they are unit-tested without running the simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Optional, Sequence

#: record keys that measure the host or the engine's bookkeeping, not the
#: simulated outcome: ``repro.bench.WALL_CLOCK_FIELDS`` plus ``sim_events``
#: (a fused charge path may reach the same outcome in fewer events)
UNPINNED_FIELDS = ("wall_clock_s", "sim_wall_seconds", "events_per_second",
                   "sim_events")

#: seeds whose ``run_point`` digest ``pin.py`` records for every simulated
#: workload; a repetition on any other seed gets the consistency checks
#: only, and its report says so
PINNED_SEEDS = tuple(range(11))


def record_digest(record: Dict) -> str:
    """sha256 of a point record's canonical JSON, unpinned keys removed."""
    canon = {k: v for k, v in record.items() if k not in UNPINNED_FIELDS}
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_sim_record(record: Dict, pinned: Optional[str] = None) -> List[str]:
    """Problems with one simulated point record (empty list = correct).

    Every request the client attempted must end as an OK reply or in one
    error class, at least one reply must succeed, and where a digest is
    pinned for the seed the record must match it exactly.
    """
    problems = []
    classed = sum(record["errors"].values())
    if record["attempts"] != record["replies_ok"] + classed:
        problems.append(f"attempts {record['attempts']} != replies_ok "
                        f"{record['replies_ok']} + errors {classed}")
    if record["replies_ok"] < 1:
        problems.append("no successful reply")
    if pinned is not None and record_digest(record) != pinned:
        problems.append("record digest differs from the pinned run_point "
                        "digest for this seed")
    return problems


def check_reply(raw: bytes, document: bytes) -> bool:
    """True for an ``HTTP/1.x 200`` reply whose body is ``document``."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        return False
    status = head.split(b"\r\n", 1)[0].split()
    return (len(status) >= 2 and status[0].startswith(b"HTTP/1.")
            and status[1] == b"200" and body == document)


def check_expectations(counts: Dict[str, float],
                       positive: Iterable[str] = (),
                       zero: Iterable[str] = ()) -> List[str]:
    """Problems when a workload stops exercising what it was chosen for."""
    problems = [f"{name} is {counts[name]}, expected > 0"
                for name in positive if not counts[name] > 0]
    problems += [f"{name} is {counts[name]}, expected 0"
                 for name in zero if counts[name] != 0]
    return problems


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed requests as a share of those attempted (0 when none were)."""
    if failed < 0 or failed > attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted if attempted else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]
