"""``python -m repro`` -- a tiny front door.

Subcommands:

* ``info``                      -- package + reproduction summary
* ``point SERVER RATE LOAD``    -- run one benchmark point; ``--trace F``
                                   writes a Chrome trace-event JSON
                                   (load it in Perfetto / about:tracing),
                                   ``--profile-out F`` prints and writes
                                   where the server CPU went, ``--flame
                                   F`` writes folded stacks and prints
                                   an ASCII flame view
* ``figures [ids...]``          -- regenerate paper figures (like
                                   examples/paper_figures.py)
* ``bench --suite NAME``        -- run a named suite, write the
                                   canonical ``BENCH_<suite>.json``
* ``diff OLD NEW``              -- attributed diff of two BENCH, two
                                   CAPACITY or two CALIBRATION
                                   artifacts: what moved, and which
                                   subsystem/pathology moved it; exits 1
                                   when two BENCH artifacts differ past
                                   the gate (the CI gate)
* ``selfperf``                  -- measure the harness's own speed
                                   (simulator events per host second)
* ``capacity``                  -- binary-search the saturation knee of
                                   every (backend x load x SMP) cell,
                                   write ``CAPACITY_<name>.json`` and a
                                   self-contained HTML report
* ``report ARTIFACT``           -- re-render the HTML report from an
                                   existing capacity artifact
                                   (byte-identical for the same input)
* ``calibrate``                 -- fit the simulated cost terms against
                                   the real kernel (a live-runtime grid)

``bench`` and ``figures`` accept ``--jobs N`` to fan independent
benchmark points across worker processes; every point is a seeded,
self-contained simulation, so the records are byte-identical to a
serial run (see docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _write_json(path: str, payload) -> bool:
    """Write a report file; one-line error instead of a traceback."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return True
    except OSError as err:
        print(f"repro: cannot write {path}: {err.strerror}", file=sys.stderr)
        return False


def _check_server(kind: str) -> bool:
    """Validate a server name; print a one-line error if unknown."""
    from repro.bench.harness import SERVER_KINDS

    if kind in SERVER_KINDS:
        return True
    print(f"repro: unknown server {kind!r}; choose from "
          f"{', '.join(sorted(SERVER_KINDS))}", file=sys.stderr)
    return False


def _check_backend(name) -> bool:
    """Validate an event-backend name (None is always fine)."""
    from repro.bench.harness import BACKEND_TO_KIND

    if name is None or name in BACKEND_TO_KIND:
        return True
    print(f"repro: unknown backend {name!r}; choose from "
          f"{', '.join(sorted(BACKEND_TO_KIND))}", file=sys.stderr)
    return False


def _check_sim_backend(name) -> bool:
    """Like _check_backend, but for commands that only run simulated."""
    if not _check_backend(name):
        return False
    if name is not None and name.startswith("live-"):
        print(f"repro: backend {name!r} runs on real sockets; this "
              f"command is simulation-only (use `repro point --runtime "
              f"live` or `repro calibrate`)", file=sys.stderr)
        return False
    return True


def cmd_info(_args) -> int:
    """Print package, server, figure, and suite inventory."""
    import repro
    from repro.bench.harness import SERVER_KINDS
    from repro.bench.figures import ALL_FIGURES
    from repro.bench.suites import SUITES

    print(f"repro {repro.__version__} -- reproduction of "
          f"'Scalable Network I/O in Linux' (Provos & Lever, 2000)")
    print(f"servers : {', '.join(sorted(SERVER_KINDS))}")
    print(f"figures : {', '.join(sorted(ALL_FIGURES))}")
    print(f"suites  : {', '.join(sorted(SUITES))}")
    print("point   : `repro point SERVER RATE LOAD --profile-out F` "
          "attributes server CPU to (subsystem, operation); --trace F and "
          "--flame F write a Chrome trace and folded stacks")
    print("bench   : `repro bench --suite smoke --out BENCH_smoke.json`, "
          "then `repro diff OLD NEW` gates on regressions")
    print("capacity: `repro capacity --backends select,epoll --inactive "
          "1,251 --jobs 2 --out report.html` maps the saturation knees "
          "and renders a self-contained HTML report")
    print("docs    : README.md, DESIGN.md, EXPERIMENTS.md, "
          "docs/observability.md")
    return 0


def cmd_point(args) -> int:
    """Run one benchmark point; print its headline numbers and the views
    its --trace, --profile-out and --flame files hold."""
    from repro.bench import BenchmarkPoint, run_point
    from repro.bench.harness import resolve_kind

    if not _check_server(args.server) or not _check_backend(args.backend):
        return 2
    runtime = args.runtime
    live_backend = (args.backend is not None
                    and args.backend.startswith("live-"))
    if runtime == "live":
        if (args.trace is not None or args.profile_out is not None
                or args.flame is not None or args.no_hints):
            print("repro: --trace/--profile-out/--flame/--no-hints are "
                  "simulation-only (the live runtime has no span exporter "
                  "or profiler)", file=sys.stderr)
            return 2
        if args.cpus != 1 or args.workers != 1:
            print("repro: --cpus/--workers are simulation-only axes",
                  file=sys.stderr)
            return 2
        if args.backend is not None and not live_backend:
            print(f"repro: backend {args.backend!r} is simulated; "
                  f"--runtime live takes live-epoll or live-select",
                  file=sys.stderr)
            return 2
    elif live_backend:
        print(f"repro: backend {args.backend!r} needs --runtime live",
              file=sys.stderr)
        return 2
    point = BenchmarkPoint(
        server=args.server, backend=args.backend, runtime=runtime,
        rate=args.rate,
        inactive=args.inactive, duration=args.duration, seed=args.seed,
        cpus=args.cpus, workers=args.workers, dispatch=args.dispatch,
        trace=args.trace is not None or args.flame is not None,
        profile=args.profile_out is not None or args.flame is not None)
    if args.no_hints:
        if resolve_kind(point) != "thttpd-devpoll":
            print("repro: --no-hints only applies to thttpd-devpoll",
                  file=sys.stderr)
            return 2
        from repro.core.devpoll import DevPollConfig

        point.server_opts["devpoll"] = DevPollConfig(use_hints=False)
    result = run_point(point)
    status = 0
    if args.flame is not None:
        from repro.obs.flame import ascii_flame, folded_stacks, write_folded

        stacks = folded_stacks(result.testbed.tracer,
                               result.profiler.report().as_dict())
        # Write the file before printing: `repro point ... --flame F |
        # head` must not lose F to a broken pipe.
        try:
            write_folded(stacks, args.flame)
        except OSError as err:
            print(f"repro: cannot write {args.flame}: {err.strerror}",
                  file=sys.stderr)
            return 1
    rr = result.reply_rate
    shown = (f"{args.server} [{args.backend}]" if args.backend
             else args.server)
    if runtime == "live":
        shown += " (live)"
    where = f"{shown} @ {args.rate:.0f}/s, {args.inactive} inactive"
    smp = (f", {args.cpus} cpus x {args.workers} workers"
           if args.cpus != 1 or args.workers != 1 else "")
    print(f"{where}, {args.duration:g}s{smp}:")
    print(f"  replies/s avg {rr.avg:.1f}  min {rr.min:.1f}  max {rr.max:.1f}"
          f"  stddev {rr.stddev:.1f}")
    median = (f"{result.median_conn_ms:.2f} ms"
              if result.median_conn_ms is not None else "-")
    print(f"  errors {result.error_percent:.2f}%   "
          f"median {median}   "
          f"cpu {100 * result.cpu_utilization:.0f}%")
    pct = result.httperf.latency_percentiles_ms()
    if pct is not None:
        print(f"  latency ms p50 {pct['p50']:.2f}  p90 {pct['p90']:.2f}  "
              f"p99 {pct['p99']:.2f}  p99.9 {pct['p99.9']:.2f}")
    if runtime == "live":
        rt = result.runtime
        port = rt.listen_address[1] if rt.listen_address else "?"
        calls = sum(rt.syscall_counts.values())
        wall_us = sum(rt.syscall_wall.values()) * 1e6
        modeled_us = rt.kernel.cpu.busy_time * 1e6
        print(f"  live: port {port}, {calls} real syscalls, "
              f"{wall_us:.0f} us measured wall vs "
              f"{modeled_us:.0f} us modeled cpu")
    if args.record_out is not None:
        from repro.bench.records import RECORD_VERSION, point_record

        record = {"record_version": RECORD_VERSION, **point_record(result)}
        if _write_json(args.record_out, record):
            print(f"  record -> {args.record_out}")
        else:
            status = 1
    if args.trace is not None and not _print_trace(result, args.trace):
        status = 1
    if args.profile_out is not None:
        from repro.bench.reporting import attribution_table

        report = result.profiler.report()
        if _write_json(args.profile_out, report.as_dict()):
            print(f"  profile -> {args.profile_out} "
                  f"({len(report.rows)} rows)")
        else:
            status = 1
        print(attribution_table(report, title=(
            f"{where}{smp}{', hints off' if args.no_hints else ''}: "
            f"{rr.avg:.1f} replies/s, cpu "
            f"{100 * result.cpu_utilization:.0f}%")))
    if args.flame is not None:
        print(f"  folded stacks -> {args.flame} ({len(stacks)} lines; feed "
              f"to flamegraph.pl or speedscope)")
        print(ascii_flame(stacks, title=(
            f"{where}: {rr.avg:.1f} replies/s -- flame (self time)")))
        if result.testbed.tracer.dropped:
            print(f"note: span ring dropped {result.testbed.tracer.dropped} "
                  f"record(s); span-derived stacks undercount",
                  file=sys.stderr)
    return status


def _print_trace(result, path: str) -> bool:
    """Write a traced point's Chrome trace JSON to ``path`` and print
    its wakeup and pathology lines; False if the file cannot be
    written."""
    from repro.obs.causal import export_chrome_trace

    ledger = result.testbed.causal
    try:
        count = export_chrome_trace(path, ledger,
                                    tracer=result.testbed.tracer)
    except OSError as err:
        print(f"repro: cannot write {path}: {err.strerror}", file=sys.stderr)
        return False
    print(f"  trace -> {path} ({count} events; open in Perfetto or "
          "chrome://tracing)")
    summary = ledger.summary()
    wakeup = summary["wakeup_latency"]
    if wakeup is None:
        print("  wakeups: none harvested")
    else:
        print(f"  wakeups: {wakeup['count']} harvested, ready->harvest "
              f"mean {wakeup['mean']:.3f} ms, max {wakeup['max']:.3f} ms")
    counters = summary["counters"]
    interesting = [
        (key, counters[key]) for key in (
            "spurious_waits", "stale_dispatches", "rtsig_overflows",
            "sigio_recovery_episodes", "harvest_unmatched")
        if counters.get(key)]
    if interesting:
        print("  pathologies: " + ", ".join(
            f"{key}={value}" for key, value in interesting))
    else:
        print("  pathologies: none observed")
    return True


def cmd_bench(args) -> int:
    """Run a named suite and write the canonical BENCH artifact."""
    from repro.bench.suites import SUITES, dump_artifact, run_suite

    if args.list:
        for name in sorted(SUITES):
            suite = SUITES[name]
            print(f"{name}: {suite.description} ({len(suite.points)} points)")
        return 0
    if args.suite not in SUITES:
        print(f"repro: unknown suite {args.suite!r}; choose from "
              f"{', '.join(sorted(SUITES))}", file=sys.stderr)
        return 2
    if not _check_sim_backend(args.backend):
        return 2
    if args.out is not None:
        out = args.out
    elif args.backend is not None:
        out = f"BENCH_{args.suite}_{args.backend}.json"
    else:
        out = f"BENCH_{args.suite}.json"

    # Progress lines run only here, in the parent: under --jobs N the
    # workers ship results back and this single callback prints them as
    # they complete, so lines never interleave mid-write.
    def progress(entry):
        if entry.get("failed"):
            print(f"  {entry['label']}: FAILED: {entry['error']}",
                  flush=True)
            return
        pct = entry.get("latency_percentiles") or {}
        p99 = pct.get("p99")
        line = (f"  {entry['label']}: {entry['reply_rate']['avg']:.1f} "
                f"replies/s, {entry['error_percent']:.2f}% err")
        if p99 is not None:
            line += f", p99 {p99:.2f} ms"
        print(line + f" [{entry['wall_clock_s']:.1f}s]", flush=True)

    # --cpus 1 / --workers 1 mean "the historical uniprocessor suite":
    # normalize to None so the artifact (and its fingerprint) is
    # byte-identical to a run without the flags.
    cpus = args.cpus if args.cpus != 1 else None
    workers = args.workers if args.workers != 1 else None
    leg = f", backend={args.backend}" if args.backend else ""
    if cpus or workers:
        leg += f", cpus={cpus or 1}, workers={workers or 1}"
    print(f"suite {args.suite} ({len(SUITES[args.suite].points)} points, "
          f"jobs={args.jobs}{leg}):")
    artifact = run_suite(args.suite, trace=args.trace, on_point=progress,
                         jobs=args.jobs, backend=args.backend,
                         cpus=cpus, workers=workers)
    try:
        dump_artifact(artifact, out)
    except OSError as err:
        print(f"repro: cannot write {out}: {err.strerror}", file=sys.stderr)
        return 1
    failed = sum(1 for p in artifact["points"] if p.get("failed"))
    print(f"artifact -> {out} (fingerprint {artifact['fingerprint']}, "
          f"{artifact['wall_clock_s']:.1f}s wall clock)")
    if failed:
        print(f"repro: {failed} point(s) failed; see the artifact",
              file=sys.stderr)
        return 1
    return 0


def cmd_diff(args) -> int:
    """Attributed diff of two artifacts: exit 1 when two BENCH artifacts
    differ past the gate, 2 when a file cannot be read."""
    from repro.bench.diffing import artifact_kind, gate_findings, render_diff

    artifacts = []
    for path in (args.old, args.new):
        try:
            with open(path, encoding="utf-8") as fh:
                artifact = json.load(fh)
            if not isinstance(artifact, dict):
                raise ValueError("not a JSON object")
            if artifact_kind(artifact) == "bench":
                # only BENCH diffs pay for loading the suite harness
                from repro.bench.suites import check_artifact
                check_artifact(artifact)
        except (OSError, ValueError) as err:
            print(f"repro: cannot read {path}: {err}", file=sys.stderr)
            return 2
        artifacts.append(artifact)
    old, new = artifacts
    print(render_diff(old, new, old_name=args.old, new_name=args.new,
                      top=args.top))
    return 1 if gate_findings(old, new) else 0


def cmd_calibrate(args) -> int:
    """Fit simulated cost terms against the real kernel (live runtime)."""
    from repro.bench.calibrate import (
        default_calibration_path,
        dump_calibration,
        run_calibration,
    )

    try:
        rates = tuple(float(r) for r in args.rates.split(","))
        inactive = tuple(int(i) for i in args.inactive.split(","))
    except ValueError as err:
        print(f"repro: bad grid value: {err}", file=sys.stderr)
        return 2
    grid_size = len(rates) * len(inactive)
    if grid_size < 4:
        print(f"repro: calibration needs >= 4 grid points to fit 4 cost "
              f"terms, got {grid_size} (rates x inactive)", file=sys.stderr)
        return 2

    def progress(block) -> None:
        print(f"  rate {block['rate']:g} inactive {block['inactive']}: "
              f"{block['replies_ok']} replies, "
              f"{block['measured_wall_us']:.0f} us measured syscall wall")

    print(f"calibrating against the live kernel "
          f"({len(rates)} rates x {len(inactive)} inactive loads, "
          f"{args.duration:g}s each)")
    try:
        artifact = run_calibration(
            rates=rates, inactive=inactive, duration=args.duration,
            backend=args.backend, on_point=progress)
    except (ValueError, OSError) as err:
        print(f"repro: calibration failed: {err}", file=sys.stderr)
        return 1
    print(f"backend {artifact['backend']}, residual "
          f"{artifact['relative_abs_residual'] * 100:.2f}% of measured wall")
    print(f"  {'term':<24} {'fitted us':>10} {'sim us':>10} {'ratio':>8}")
    for name, fitted in artifact["fitted_terms_us"].items():
        sim_value = artifact["sim_terms_us"][name]
        ratio = artifact["fit_over_sim_ratio"][name]
        ratio_text = f"{ratio:.3f}" if ratio is not None else "-"
        print(f"  {name:<24} {fitted:>10.3f} {sim_value:>10.3f} "
              f"{ratio_text:>8}")
    clamped = artifact.get("clamped_terms") or []
    if clamped:
        print(f"  ({', '.join(clamped)} clamped to zero: not separable "
              f"from the other columns on this workload -- see "
              f"measured_us_per_call)")
    out = args.out or default_calibration_path(artifact["backend"])
    try:
        dump_calibration(artifact, out)
    except OSError as err:
        print(f"repro: cannot write {out}: {err}", file=sys.stderr)
        return 1
    print(f"calibration -> {out}")
    return 0


def cmd_selfperf(args) -> int:
    """Measure harness speed: events, or simulated seconds, per host second."""
    from repro.bench.selfperf import check_floor, run_selfperf

    block = run_selfperf(include_point=not args.engine_only,
                         repeat=args.repeat,
                         calibrate=args.floor is not None)
    for name, data in block.items():
        if name == "calibration":
            print(f"calibration: {data['loops_per_second']:,.0f} loops/s")
            continue
        print(f"{name}: {data['events_processed']} events in "
              f"{data['sim_wall_seconds']:.3f}s host = "
              f"{data['events_per_second']:,.0f} events/s")
        if "sim_seconds_per_second" in data:
            print(f"  {data['simulated_seconds']:.3f} simulated s = "
                  f"{data['sim_seconds_per_second']:,.2f} simulated s "
                  "per host s")
        if name == "engine_churn":
            print(f"  heap compactions {data['heap_compactions']}, "
                  f"cancelled purged {data['cancelled_purged']}, "
                  f"setup {data['setup_seconds']:.3f}s (untimed)")
    if args.json is not None:
        if not _write_json(args.json, block):
            return 1
        print(f"selfperf -> {args.json}")
    if args.floor is not None:
        try:
            with open(args.floor, encoding="utf-8") as fh:
                floor = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"repro: cannot read floor {args.floor}: {err}",
                  file=sys.stderr)
            return 2
        ok, lines = check_floor(block, floor)
        for line in lines:
            print(line)
        if not ok:
            print("selfperf: BELOW the ratchet floor",
                  file=sys.stderr)
            return 1
        print("selfperf: above the ratchet floor")
    return 0


def cmd_capacity(args) -> int:
    """Run the capacity matrix; write the artifact + HTML report."""
    from repro.bench.capacity import (CapacitySearch, default_artifact_path,
                                      dump_capacity_artifact, matrix_cells,
                                      parse_smp, run_capacity_matrix)
    from repro.obs.report import write_report

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not backends:
        print("repro: --backends needs at least one backend",
              file=sys.stderr)
        return 2
    for backend in backends:
        if not _check_sim_backend(backend):
            return 2
    try:
        inactive = [int(x) for x in args.inactive.split(",") if x.strip()]
        cells = matrix_cells(backends, inactive, smp=parse_smp(args.smp),
                             dispatch=args.dispatch)
        search = CapacitySearch(
            low=args.low, high=args.high, tolerance=args.tolerance,
            duration=args.duration, seed=args.seed, timeline=args.timeline)
    except ValueError as err:
        print(f"repro: {err}", file=sys.stderr)
        return 2
    print(f"capacity matrix {args.name!r}: {len(cells)} cell(s), "
          f"search {search.low:g}..{search.high:g} replies/s "
          f"(tolerance {search.tolerance:g}), jobs={args.jobs}")
    artifact = run_capacity_matrix(
        cells, search=search, jobs=args.jobs, name=args.name,
        on_event=lambda line: print(f"  {line}", flush=True))
    artifact_path = args.artifact or default_artifact_path(args.name)
    try:
        dump_capacity_artifact(artifact, artifact_path)
    except OSError as err:
        print(f"repro: cannot write {artifact_path}: {err.strerror}",
              file=sys.stderr)
        return 1
    print(f"artifact -> {artifact_path} "
          f"(fingerprint {artifact['fingerprint']}, "
          f"{artifact['wall_clock_s']:.1f}s wall clock)")
    if args.out is not None:
        try:
            size = write_report(artifact, args.out)
        except OSError as err:
            print(f"repro: cannot write {args.out}: {err.strerror}",
                  file=sys.stderr)
            return 1
        print(f"report -> {args.out} ({size} bytes, self-contained)")
    return 0


def cmd_report(args) -> int:
    """Re-render the HTML report from a capacity artifact."""
    from repro.bench.capacity import load_capacity_artifact
    from repro.obs.report import write_report

    try:
        artifact = load_capacity_artifact(args.artifact)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"repro: cannot read {args.artifact}: {err}", file=sys.stderr)
        return 2
    try:
        size = write_report(artifact, args.out)
    except OSError as err:
        print(f"repro: cannot write {args.out}: {err.strerror}",
              file=sys.stderr)
        return 1
    print(f"report -> {args.out} ({size} bytes, "
          f"fingerprint {artifact.get('fingerprint')})")
    return 0


def cmd_figures(args) -> int:
    """Regenerate the requested figures at CLI-chosen scale."""
    from repro.bench.figures import ALL_FIGURES
    from repro.bench.harness import BenchmarkPoint

    if not _check_sim_backend(args.backend):
        return 2
    wanted = args.ids or sorted(ALL_FIGURES)
    base_point = None
    if (args.trace or args.profile_out is not None
            or args.backend is not None
            or args.cpus != 1 or args.workers != 1):
        # backend/cpus/workers ride on the template point:
        # run_rate_sweep's replace() touches server/rate/..., so the pin
        # survives into every point and run_point retargets each one.
        # (fig_smp sets its own cpus/workers per point regardless.)
        base_point = BenchmarkPoint(trace=args.trace,
                                    profile=args.profile_out is not None,
                                    backend=args.backend,
                                    cpus=args.cpus, workers=args.workers)
    profiles = {}
    for fig_id in wanted:
        if fig_id not in ALL_FIGURES:
            print(f"unknown figure {fig_id!r}", file=sys.stderr)
            return 1
        figure = ALL_FIGURES[fig_id](rates=tuple(args.rates),
                                     duration=args.duration, seed=args.seed,
                                     base_point=base_point, jobs=args.jobs)
        print(figure.render())
        print()
        if args.profile_out is not None:
            for name, sweep in figure.sweeps.items():
                for p in sweep.points:
                    if p.profiler is None:
                        continue
                    key = f"{fig_id}/{name}/{p.point.rate:.0f}"
                    profiles[key] = p.profiler.report().as_dict()
    if args.profile_out is not None:
        if not _write_json(args.profile_out, profiles):
            return 1
        print(f"profiles -> {args.profile_out} ({len(profiles)} runs)")
    return 0


def main(argv=None) -> int:
    """argparse front door; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="package summary")

    p_point = sub.add_parser("point", help="run one benchmark point")
    p_point.add_argument("server")
    p_point.add_argument("rate", type=float)
    p_point.add_argument("inactive", type=int)
    p_point.add_argument("--duration", type=float, default=5.0)
    p_point.add_argument("--seed", type=int, default=0)
    p_point.add_argument("--backend", metavar="NAME",
                         help="pin an event backend (select, poll, "
                              "devpoll, rtsig, epoll, hybrid; live-epoll/"
                              "live-select with --runtime live); "
                              "overrides SERVER")
    p_point.add_argument("--runtime", choices=("sim", "live"),
                         default="sim",
                         help="execution substrate: the simulated kernel "
                              "(default) or real localhost sockets")
    p_point.add_argument("--record-out", metavar="FILE",
                         help="write the versioned point record as JSON")
    p_point.add_argument("--cpus", type=int, default=1, metavar="N",
                         help="simulated server CPUs (default 1)")
    p_point.add_argument("--workers", type=int, default=1, metavar="N",
                         help="prefork workers sharing the port via "
                              "SO_REUSEPORT (default 1)")
    p_point.add_argument("--dispatch", choices=("hash", "round-robin"),
                         default="hash",
                         help="accept-sharding policy when --workers > 1")
    p_point.add_argument("--trace", metavar="FILE",
                         help="trace the run; write causal chains, spans "
                              "and point events as Chrome trace-event "
                              "JSON (Perfetto-loadable)")
    p_point.add_argument("--profile-out", metavar="FILE",
                         help="profile the run; print where the server "
                              "CPU went and write it as JSON")
    p_point.add_argument("--flame", metavar="FILE",
                         help="trace and profile the run; write folded "
                              "stacks (flamegraph.pl input) and print an "
                              "ASCII flame view")
    p_point.add_argument("--no-hints", action="store_true",
                         help="disable /dev/poll hints (thttpd-devpoll only)")

    p_bench = sub.add_parser(
        "bench", help="run a named suite, write BENCH_<suite>.json")
    p_bench.add_argument("--suite", default="smoke")
    p_bench.add_argument("--out", metavar="FILE",
                         help="artifact path (default BENCH_<suite>.json)")
    p_bench.add_argument("--backend", metavar="NAME",
                         help="retarget every point onto one event "
                              "backend (the CI backend matrix)")
    p_bench.add_argument("--cpus", type=int, default=1, metavar="N",
                         help="retarget every point onto an N-CPU server "
                              "host (1 = the historical suite, unchanged)")
    p_bench.add_argument("--workers", type=int, default=1, metavar="N",
                         help="prefork workers per point via SO_REUSEPORT "
                              "(1 = the historical suite, unchanged)")
    p_bench.add_argument("--trace", action="store_true",
                         help="run every point with span tracing on")
    p_bench.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="run points across N worker processes "
                              "(default 1: serial, in-process)")
    p_bench.add_argument("--list", action="store_true",
                         help="list available suites and exit")

    p_diff = sub.add_parser(
        "diff", help="attributed diff of two artifacts; exit 1 when two "
                     "BENCH artifacts differ past the gate")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.add_argument("--top", type=int, default=8,
                        help="max profiler/pathology rows per entry "
                             "(default 8)")

    p_cal = sub.add_parser(
        "calibrate",
        help="fit simulated cost terms against the real kernel "
             "(runs a live-runtime grid)")
    p_cal.add_argument("--rates", default="50,150,300", metavar="R1,R2,..",
                       help="comma-separated request rates for the grid "
                            "(default 50,150,300)")
    p_cal.add_argument("--inactive", default="0,32,128", metavar="N1,N2,..",
                       help="comma-separated inactive-connection loads "
                            "(default 0,32,128)")
    p_cal.add_argument("--duration", type=float, default=1.0,
                       help="seconds per grid point (default 1.0)")
    p_cal.add_argument("--backend", metavar="NAME",
                       help="live backend (live-epoll or live-select; "
                            "default: live-epoll where available)")
    p_cal.add_argument("--out", metavar="FILE",
                       help="artifact path "
                            "(default CALIBRATION_<backend>.json)")

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("ids", nargs="*")
    p_fig.add_argument("--rates", type=float, nargs="+",
                       default=[500, 800, 1100])
    p_fig.add_argument("--duration", type=float, default=5.0)
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--backend", metavar="NAME",
                       help="run every figure point on one event backend")
    p_fig.add_argument("--cpus", type=int, default=1, metavar="N",
                       help="simulated server CPUs per point (fig_smp "
                            "sweeps its own counts regardless)")
    p_fig.add_argument("--workers", type=int, default=1, metavar="N",
                       help="prefork workers per point via SO_REUSEPORT")
    p_fig.add_argument("--trace", action="store_true",
                       help="run every point with span tracing on")
    p_fig.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run each sweep's points across N worker "
                            "processes (default 1: serial)")
    p_fig.add_argument("--profile-out", metavar="FILE",
                       help="profile every point; write all reports as JSON")

    p_cap = sub.add_parser(
        "capacity",
        help="binary-search peak sustainable rate per (backend x load x "
             "SMP) cell; write CAPACITY_<name>.json + an HTML report")
    p_cap.add_argument("--backends", default="select,epoll", metavar="LIST",
                       help="comma-separated event backends "
                            "(default select,epoll)")
    p_cap.add_argument("--inactive", default="1,251", metavar="LIST",
                       help="comma-separated inactive-connection loads "
                            "(default 1,251)")
    p_cap.add_argument("--smp", default="1x1", metavar="SHAPES",
                       help="comma-separated CPUSxWORKERS shapes, e.g. "
                            "1x1,4x4 (default 1x1)")
    p_cap.add_argument("--dispatch", choices=("hash", "round-robin"),
                       default="hash",
                       help="accept-sharding policy for SMP shapes")
    p_cap.add_argument("--low", type=float, default=100.0,
                       help="search floor, replies/s (default 100)")
    p_cap.add_argument("--high", type=float, default=2000.0,
                       help="search ceiling, replies/s (default 2000)")
    p_cap.add_argument("--tolerance", type=float, default=150.0,
                       help="stop bisecting when the bracket closes to "
                            "this many replies/s (default 150)")
    p_cap.add_argument("--duration", type=float, default=2.0,
                       help="simulated seconds per probe (default 2, "
                            "minimum 2)")
    p_cap.add_argument("--seed", type=int, default=0)
    p_cap.add_argument("--timeline", type=float, default=0.25,
                       help="timeline sampling interval of the knee "
                            "verification run (default 0.25s; 0 = off)")
    p_cap.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="probe across N worker processes; the probe "
                            "history stays identical to a serial run")
    p_cap.add_argument("--name", default="matrix",
                       help="artifact name (default 'matrix' -> "
                            "CAPACITY_matrix.json)")
    p_cap.add_argument("--artifact", metavar="FILE",
                       help="artifact path (default CAPACITY_<name>.json)")
    p_cap.add_argument("--out", metavar="FILE", default="report.html",
                       help="self-contained HTML report path "
                            "(default report.html)")

    p_rep = sub.add_parser(
        "report", help="re-render the HTML report from a CAPACITY artifact")
    p_rep.add_argument("artifact", help="a CAPACITY_<name>.json file")
    p_rep.add_argument("--out", metavar="FILE", default="report.html",
                       help="HTML output path (default report.html)")

    p_perf = sub.add_parser(
        "selfperf", help="measure harness speed (host seconds per workload)")
    p_perf.add_argument("--engine-only", action="store_true",
                        help="skip the end-to-end point workload")
    p_perf.add_argument("--json", metavar="FILE",
                        help="also write the block as JSON")
    p_perf.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each workload N times, keep the best "
                             "(default 1)")
    p_perf.add_argument("--floor", metavar="FILE",
                        help="check each workload's ratchet metric "
                             "against a floor file "
                             "(exit 1 if below the calibration-scaled "
                             "floor)")

    args = parser.parse_args(argv)
    if args.command == "point":
        return cmd_point(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "diff":
        return cmd_diff(args)
    if args.command == "calibrate":
        return cmd_calibrate(args)
    if args.command == "figures":
        return cmd_figures(args)
    if args.command == "capacity":
        return cmd_capacity(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "selfperf":
        return cmd_selfperf(args)
    return cmd_info(args)


if __name__ == "__main__":
    try:
        status = main()
        # flush here, inside the try, so a reader that went away (`| head`)
        # is met below rather than at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the idiom from Python's signal documentation: point stdout at
        # devnull so the interpreter's last flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
