"""The repository's benchmark: one workload, measured end to end or by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload devpoll_idle --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh process (``worker.py``).  With
``--trace 0`` repetitions follow one another until ``--seconds`` is
spent (at least three), and every end-to-end metric is the median over
them.  With ``--trace 1`` one plain repetition gives the layers' counts
and one profiled repetition gives each layer's host time; the ratio of
their measured phases is the profiler's overhead.

The second-to-last line of output is a JSON report (provenance and every
repetition); the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import PINNED_SEEDS  # noqa: E402
from layers import LAYERS, OTHER  # noqa: E402
from workloads import COUNTS, WORKLOADS, SimWorkload  # noqa: E402

MIN_REPS = 3
#: stop starting repetitions past this many seconds, whatever --seconds
#: says: a run must end within three minutes
HARD_STOP_S = 140.0
REP_TIMEOUT_S = 150.0

#: name -> (unit, better) for every metric printed with --trace 0
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "replies_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
}


#: name -> (unit, better) for every metric printed with --trace 1
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS + (OTHER,)},
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    **COUNTS,
    "trace.overhead_ratio": ("ratio", "lower"),
}


def run_rep(workload: str, seed: int, profile: bool) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; raises if it fails."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed)] + (["--profile"] if profile else [])
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition failed ({proc.returncode}):\n"
                           f"{proc.stderr.strip()}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["wall_s"] = time.monotonic() - t0
    return rep


def provenance(seed: int) -> Dict[str, Any]:
    """Where and from what the numbers came, so hosts are not compared
    blindly: source identity, interpreter, cores, and a host speed score."""
    from repro.bench.selfperf import run_calibration

    sha: Optional[str] = None  # a plain checkout: src_sha256 identifies it
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "calibration_loops_per_s": run_calibration(),
    }


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median over repetitions of every end-to-end metric."""
    per_rep = {
        "setup_s": [r["setup_s"] for r in reps],
        "run_s": [r["run_s"] for r in reps],
        "replies_per_s": [r["replies_ok"] / r["run_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "latency_p50_ms": [r["latency_p50_ms"] for r in reps],
        "latency_p90_ms": [r["latency_p90_ms"] for r in reps],
    }
    return {name: statistics.median(values) for name, values in per_rep.items()}


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Counts from the plain repetition, host time from the profiled one."""
    values = dict(plain["counts"])
    for layer, row in traced["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        if layer != OTHER:
            values[f"{layer}.calls"] = row["calls"]
    values["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to the benchmark; run it from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    try:
        if args.trace:
            reps = [run_rep(args.workload, args.seed, profile=False),
                    run_rep(args.workload, args.seed, profile=True)]
            values = per_layer(*reps)
            specs = PER_LAYER
        else:
            reps = []
            started = time.monotonic()
            while True:
                reps.append(run_rep(args.workload, args.seed, profile=False))
                elapsed = time.monotonic() - started
                next_end = elapsed + reps[-1]["wall_s"]
                if len(reps) >= MIN_REPS and (next_end > args.seconds
                                              or next_end > HARD_STOP_S):
                    break
            values = end_to_end(reps)
            specs = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    problems = [p for r in reps for p in r["problems"]]
    unpinned = (isinstance(WORKLOADS[args.workload], SimWorkload)
                and args.seed not in PINNED_SEEDS)
    if unpinned:
        print(f"perfbench: seed {args.seed} has no pinned digest (seeds "
              f"{PINNED_SEEDS[0]}-{PINNED_SEEDS[-1]} do); its records get "
              "the consistency checks only", file=sys.stderr)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "digest_checked": not unpinned,
        "problems": problems,
        "reps": [{k: v for k, v in r.items() if k not in ("counts", "layers")}
                 for r in reps],
    }
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _better) in specs.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
