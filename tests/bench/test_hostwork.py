"""Host work, counted rather than timed.

Host seconds on a shared machine are noisy; call counts repeat exactly.
This test runs the golden ``smp_overload`` point (select() on 4 CPUs x 4
workers, past the knee, 128 idle connections) once and counts

* the simulated driver poll callbacks: the sum of every file's
  ``poll_callback_count``, which the simulated scan cost is made of;
* the host socket-mask evaluations: calls of ``SocketFile.poll_mask``.

The first must equal its pinned count exactly, or a simulated scan
changed.  The second must stay within the budget checked in beside this
test (``hostwork_budget.json``); when a change lowers it, lower the
budget with it.  A change that raises it fails until it raises the
budget and says why.
"""

import json
import os

from repro.bench.harness import run_point
from repro.kernel.file import File
from repro.net.socket import SocketFile

from .test_golden_digests import GOLDEN

BUDGET = os.path.join(os.path.dirname(__file__), "hostwork_budget.json")


def test_smp_overload_host_work_within_budget(monkeypatch):
    files = []
    masks = 0
    file_init = File.__init__
    poll_mask = SocketFile.poll_mask

    def recording_init(self, *args, **kwargs):
        file_init(self, *args, **kwargs)
        files.append(self)

    def counting_poll_mask(self):
        nonlocal masks
        masks += 1
        return poll_mask(self)

    monkeypatch.setattr(File, "__init__", recording_init)
    monkeypatch.setattr(SocketFile, "poll_mask", counting_poll_mask)
    run_point(GOLDEN["smp_overload"][0])
    with open(BUDGET) as fh:
        budget = json.load(fh)["smp_overload"]
    simulated = sum(f.poll_callback_count for f in files)
    assert simulated == budget["simulated_callbacks"], (
        "the simulated scans made a different number of callbacks")
    assert masks <= budget["host_socket_masks"], (
        f"{masks} host socket-mask evaluations exceed the budget")
