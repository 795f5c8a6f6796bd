"""One benchmark repetition in a fresh process.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED [--profile]``, from the
root of the repository.  Prints one JSON object: set-up and measured host
seconds (scaled, see ``hostspeed.py``, and raw), peak memory, request counts, latencies, the per-layer counts,
any output-check problems and, with ``--profile``, host time by layer.
"""

import time

from hostspeed import ScaledClock

#: set-up time starts before any import below
SETUP = ScaledClock(time.process_time)

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--profile", action="store_true",
                        help="profile the measured phase, by layer")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

    import layers
    from workloads import WORKLOADS, LiveWorkload

    spec = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh).get(spec.name, {})
    factory = None
    if args.profile:
        # threads block in real syscalls on the live workload: charge
        # them CPU time, not the wall time they spend waiting
        factory = ((lambda: cProfile.Profile(time.thread_time))
                   if isinstance(spec, LiveWorkload) else cProfile.Profile)
    rep = spec.run(args.seed, SETUP, digests, factory)
    profiles = rep.pop("profiles")
    if profiles:
        stats = pstats.Stats(profiles[0])
        for prof in profiles[1:]:
            stats.add(prof)
        rep["layers"] = layers.fold(stats.stats)
    rep["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    print(json.dumps(rep))


if __name__ == "__main__":
    main()
