#!/usr/bin/env python3
"""Capacity vs inactive load: the reproduction's signature summary curve.

For each event backend, search for the highest sustainable request rate
at increasing inactive-connection counts.  This condenses figures 4-13
into one table: stock poll()'s capacity falls roughly linearly with idle
state, /dev/poll's stays flat, phhttpd (rtsig) sits in between depending
on whether its signal queue survived the run, and the section-6 hybrid
falls back to its /dev/poll interest set when the queue overflows.

Every (backend, load) pair is one capacity-matrix cell: the same
bracket-then-bisect search ``python -m repro capacity`` runs.

Run:  python examples/capacity_curve.py [--backends poll,devpoll]
      (the full curve takes a while; each cell is a small search)
"""

import argparse

from repro.bench import format_table
from repro.bench.capacity import (CapacitySearch, matrix_cells,
                                  run_capacity_matrix)

DEFAULT_BACKENDS = ("poll", "devpoll", "rtsig", "hybrid")
DEFAULT_LOADS = (1, 126, 251, 501)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backends", type=str,
                        default=",".join(DEFAULT_BACKENDS))
    parser.add_argument("--loads", type=str,
                        default=",".join(str(l) for l in DEFAULT_LOADS))
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--tolerance", type=float, default=100.0)
    args = parser.parse_args()

    cells = matrix_cells(args.backends.split(","),
                         [int(l) for l in args.loads.split(",")])
    search = CapacitySearch(low=200.0, high=1600.0,
                            tolerance=args.tolerance,
                            duration=args.duration, timeline=0.0)
    artifact = run_capacity_matrix(cells, search=search,
                                   name="capacity_curve", on_event=print)
    rows = [(cell["backend"], cell["server"], cell["inactive"],
             cell["capacity"], len(cell["probes"]))
            for cell in artifact["cells"]]

    print()
    print(format_table(
        ["backend", "server", "inactive", "capacity replies/s", "probes"],
        rows, title="sustainable capacity vs inactive-connection load"))
    print()
    print("The paper in one table: /dev/poll's capacity is flat in idle "
          "state; poll()'s decays;\nphhttpd depends on whether the "
          "reconnect herd overflowed its signal queue.")


if __name__ == "__main__":
    main()
