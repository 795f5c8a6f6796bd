"""Host work, counted rather than timed.

Host seconds on a shared machine are noisy; call counts repeat exactly.
This test runs the golden ``smp_overload`` point (select() on 4 CPUs x 4
workers, past the knee, 128 idle connections) and three golden points
that scan a hinted ready list -- ``overload_devpoll``, ``overload_epoll``
and ``devpoll_nohints`` -- once each and counts

* the simulated driver poll callbacks: the sum of every file's
  ``poll_callback_count``, which the simulated scan cost is made of;
* the host socket-mask evaluations: calls of ``SocketFile.poll_mask``.

The first must equal its pinned count exactly, or a simulated scan
changed.  The second must stay within the budget checked in beside this
test (``hostwork_budget.json``); when a change lowers it, lower the
budget with it.  A change that raises it fails until it raises the
budget and says why.

The ``smp_overload`` run then checks the end state a finished
connection must reach: its endpoints are freed, and a TIME-WAIT entry
holds no more than its port.
"""

import gc
import json
import os

import pytest

from repro.bench.harness import run_point
from repro.kernel.file import File
from repro.net.socket import SocketFile
from repro.net.stack import EPHEMERAL_HIGH, EPHEMERAL_LOW
from repro.net.tcp import TcpEndpoint
from repro.sim.engine import Timer

from .test_golden_digests import GOLDEN

BUDGET = os.path.join(os.path.dirname(__file__), "hostwork_budget.json")


def run_counted(name):
    """Run the golden point ``name`` once; returns its result, the
    simulated callbacks and the host socket-mask evaluations."""
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

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(File, "__init__", recording_init)
        patch.setattr(SocketFile, "poll_mask", counting_poll_mask)
        result = run_point(GOLDEN[name][0])
    # summed here so that no list of every file outlives the run
    return result, sum(f.poll_callback_count for f in files), masks


def check_budget(name, simulated, masks):
    with open(BUDGET) as fh:
        budget = json.load(fh)[name]
    assert simulated == budget["simulated_callbacks"], (
        f"{name}: the simulated scans made a different number of callbacks")
    assert masks <= budget["host_socket_masks"], (
        f"{name}: {masks} host socket-mask evaluations exceed the budget")


@pytest.fixture(scope="module")
def smp_overload():
    return run_counted("smp_overload")


def test_smp_overload_host_work_within_budget(smp_overload):
    check_budget("smp_overload", *smp_overload[1:])


@pytest.mark.parametrize("name", ["overload_devpoll", "overload_epoll",
                                  "devpoll_nohints"])
def test_ready_list_host_work_within_budget(name):
    check_budget(name, *run_counted(name)[1:])


def test_smp_overload_frees_finished_connections(smp_overload):
    result = smp_overload[0]
    server = result.testbed.server_stack
    client = result.testbed.client_stack
    gc.collect()
    objects = gc.get_objects()
    endpoints = [o for o in objects
                 if type(o) is TcpEndpoint and o.stack in (server, client)]
    # only open connections keep their endpoints
    assert len(endpoints) == (server.open_connections
                              + client.open_connections) == 256
    assert server.time_wait_count == 1690
    # every client port in use is held by an endpoint or a TIME-WAIT entry
    tw_ports = [o.args[0] for o in objects
                if type(o) is Timer and o.sim is not None and not o.cancelled
                and o.fn == client._leave_time_wait and o.args[0] is not None]
    owning = [e for e in endpoints if e.stack is client and e.owns_port]
    in_use = EPHEMERAL_HIGH - EPHEMERAL_LOW - client.ports_available
    assert in_use == len(owning) + len(tw_ports) == 128
