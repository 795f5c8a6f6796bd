"""Reproduction of "Scalable Network I/O in Linux" (Provos & Lever,
USENIX FREENIX 2000).

The package simulates the paper's entire testbed in pure Python:

* :mod:`repro.sim` -- discrete-event engine, CPU cost accounting;
* :mod:`repro.kernel` -- a Linux-2.2-style kernel (tasks, fds, wait
  queues, POSIX RT signal queues, a cost-accounted syscall layer);
* :mod:`repro.core` -- the paper's contribution: classic ``poll()``,
  the ``/dev/poll`` device with in-kernel interest sets, device-driver
  hints, and the mmap'd result area, plus RT-signal I/O helpers;
* :mod:`repro.net` -- 100 Mbit/s switched Ethernet, a compact TCP with
  backlog overflow / TIME-WAIT / RST semantics, sockets;
* :mod:`repro.http` + :mod:`repro.servers` -- thttpd (poll),
  thttpd+/dev/poll, phhttpd (RT signals), and the section-6 hybrid;
* :mod:`repro.bench` -- the httperf-style harness regenerating every
  figure in the paper's evaluation.

Quick start::

    from repro.bench import BenchmarkPoint, run_point
    result = run_point(BenchmarkPoint(server="thttpd-devpoll",
                                      rate=800, inactive=251, duration=5))
    print(result.reply_rate.avg, result.error_percent)

Importing the package loads none of its subpackages.
"""

__version__ = "1.0.0"

__all__ = ["bench", "core", "http", "kernel", "net", "servers", "sim",
           "__version__"]
