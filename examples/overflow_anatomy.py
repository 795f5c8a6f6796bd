#!/usr/bin/env python3
"""Anatomy of an RT-signal-queue overflow (figure 14's latency jump).

Runs phhttpd at load 251 just past its crossover point with tracing on,
then dissects the run:

* the kernel trace of the overflow and the poll-sibling takeover;
* connection-time histograms before and after the overflow instant,
  showing the bimodal distribution hiding behind the jump in the median;
* where the server CPU went in each regime.

Run:  python examples/overflow_anatomy.py [--rate 1000]
"""

import argparse

from repro.bench import BenchmarkPoint, ascii_histogram, run_point


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=1000.0)
    parser.add_argument("--inactive", type=int, default=251)
    parser.add_argument("--duration", type=float, default=12.0)
    args = parser.parse_args()

    result = run_point(BenchmarkPoint(
        server="phhttpd", rate=args.rate, inactive=args.inactive,
        duration=args.duration, seed=7, trace=True))
    server = result.server

    print(f"phhttpd @ {args.rate:.0f} req/s, {args.inactive} inactive, "
          f"{args.duration:.0f}s measured")
    print(f"  avg reply rate : {result.reply_rate.avg:.1f}/s "
          f"(min {result.reply_rate.min:.0f})")
    print(f"  errors         : {result.error_percent:.1f}%")
    print(f"  median conn    : {result.median_conn_ms:.1f} ms")
    print()

    print("kernel/server trace (phhttpd subsystem):")
    for record in result.testbed.tracer.records("phhttpd"):
        print(f"  [{record.time:9.3f}s] {record.message}")
    print()

    if server.overflow_at is None:
        print("no overflow occurred in this run -- raise --rate or "
              "--inactive to cross the knee.")
        return

    # split connection times at the overflow instant
    before = [ms for t, ms in result.httperf.reply_log
              if t < server.overflow_at]
    after = [ms for t, ms in result.httperf.reply_log
             if t >= server.overflow_at]

    if before:
        print(ascii_histogram(
            before, bins=10, width=36,
            title=f"connection times BEFORE overflow "
                  f"(t < {server.overflow_at:.2f}s), ms"))
        print()
    if after:
        print(ascii_histogram(
            after, bins=10, width=36,
            title=f"connection times AFTER overflow "
                  f"(t >= {server.overflow_at:.2f}s), ms"))
        print()

    print("CPU by category (whole run):")
    by_cat = result.testbed.server_kernel.cpu.busy_by_category
    for cat, secs in sorted(by_cat.items(), key=lambda kv: -kv[1])[:10]:
        print(f"  {cat:18s} {secs:8.4f}s")
    print()
    print(f"signal queue: posted {server.task.signal_queue.stats.posted}, "
          f"dropped {server.task.signal_queue.stats.dropped}, "
          f"max depth {server.task.signal_queue.stats.max_depth} "
          f"(bound {server.task.signal_queue.rtsig_max})")
    print(f"handoff: {server.handoffs} connections, one message each, "
          f"at t={server.overflow_at:.2f}s")


if __name__ == "__main__":
    main()
