"""Pin the simulated workloads' records: ``run_point``'s digest per seed.

Usage, from the root of the repository::

    python3 perfbench/pin.py

Writes ``perfbench/digests.json``: one digest for every simulated
workload and every seed in ``checks.PINNED_SEEDS``.  Each benchmark
repetition on a pinned seed rebuilds the point from its parts and must
reproduce this digest exactly, which also shows that the benchmark's
split of the point into set-up and measured phase runs the same
simulation as ``repro.bench.run_point``.  Re-pin only in a change that
means to alter simulated results.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import PINNED_SEEDS, record_digest  # noqa: E402
from workloads import WORKLOADS, SimWorkload  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")


def main() -> None:
    from repro.bench import point_record, run_point

    pinned = {}
    for spec in WORKLOADS.values():
        if not isinstance(spec, SimWorkload):
            continue
        pinned[spec.name] = {
            str(seed): record_digest(point_record(run_point(spec.point(seed))))
            for seed in PINNED_SEEDS}
        print(spec.name, "pinned", len(PINNED_SEEDS), "seeds", flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
