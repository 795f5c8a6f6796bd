"""Host work, counted rather than timed.

Host seconds on a shared machine are noisy; call counts repeat exactly.
This test runs the golden ``smp_overload`` point (select() on 4 CPUs x 4
workers, past the knee, 128 idle connections), two golden points whose
server keeps a poll() table -- ``rtsig_overflow`` and ``poll`` -- and
three golden points that scan a hinted ready list -- ``overload_devpoll``,
``overload_epoll`` and ``devpoll_nohints`` -- once each and counts

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
holds no more than its port.  It, ``rtsig_overflow`` and ``poll`` also
check what the select() and poll() callers' poll tables leave behind:
every poll entry on a file belongs to a caller still parked in its
wait, or to a table that still watches that file, and none sits on a
closed file or off its fd table's chain.  Each stack's TIME-WAIT FIFO must hold
every entry its counter saw enter, in calendar-key order, with the
FIFO's one resident timer, and no other, pending under the head's key.

The last tests budget Python calls by layer.  They count the profiler's
``call`` events (a function entered or a generator resumed) per
``repro`` package over two points -- one ``thttpd-devpoll`` point
(``layer_calls``) and the golden ``smp_overload`` point
(``smp_overload_layer_calls``) -- and each package's count must stay
within its entry.  When a change lowers a count, lower the entry with
it; a change that raises one fails until it raises the entry and says
why.  Each change also appends its counts to the trajectory
``BENCH_hostwork.json`` at the repository root, whose newest entry must
equal the budget.
"""

import dataclasses
import gc
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.bench.harness import BenchmarkPoint, run_point
from repro.kernel.file import File
from repro.net.socket import SocketFile
from repro.net.stack import EPHEMERAL_HIGH, EPHEMERAL_LOW
from repro.net.tcp import TcpEndpoint

from .test_golden_digests import GOLDEN

BUDGET = os.path.join(os.path.dirname(__file__), "hostwork_budget.json")
TRAJECTORY = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "BENCH_hostwork.json")


def poll_entries_end_state(files):
    """Problems with the poll entries left on ``files`` (see the module
    docstring), and the tables holding them."""
    problems = []
    tables = set()
    for file in files:
        for entry in file.wait_queue.poll_entries():
            table = entry.owner
            tables.add(table)
            where = f"{file.name} fd {entry.fd}"
            if file.closed:
                problems.append(f"{where}: entry on a closed file")
            if entry.file is not file:
                problems.append(f"{where}: entry resolved to another file")
            if table.armed_at is not None and entry in (table._stale or ()):
                continue  # its fd changed while its caller sleeps
            watched = (entry in table.entries if table.interests is not None
                       else table.by_fd.get(entry.fd) is entry)
            if not watched:
                problems.append(f"{where}: entry its table no longer watches")
            chain = table.fdtable.polled.get(entry.fd)
            while chain is not None and chain is not entry:
                chain = chain.next
            if chain is None or table.fdtable.lookup(entry.fd) is not file:
                problems.append(f"{where}: entry off its fd table's chain")
    return problems, tables


def run_counted(name):
    """Run the golden point ``name`` once; returns its result, the
    simulated callbacks, the host socket-mask evaluations and what
    :func:`poll_entries_end_state` finds."""
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
    # summed and checked here so that no list of every file outlives
    # the run
    return (result, sum(f.poll_callback_count for f in files), masks,
            poll_entries_end_state(files))


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
    check_budget("smp_overload", *smp_overload[1:3])


def test_smp_overload_poll_tables_end_state(smp_overload):
    problems, tables = smp_overload[3]
    assert problems == []
    # the four workers' kept tables, found through their hooked entries
    assert len([table for table in tables if table.keep]) == 4


@pytest.mark.parametrize("name", ["rtsig_overflow", "poll"])
def test_poll_table_host_work_and_end_state(name):
    """Kept poll() tables: phhttpd's poll sibling keeps one through an
    RT-signal overflow (``rtsig_overflow``), thttpd's loop on poll()
    keeps one (``poll``)."""
    _result, simulated, masks, (problems, tables) = run_counted(name)
    check_budget(name, simulated, masks)
    assert problems == []
    assert len([table for table in tables if table.keep]) == 1


@pytest.mark.parametrize("name", ["overload_devpoll", "overload_epoll",
                                  "devpoll_nohints"])
def test_ready_list_host_work_within_budget(name):
    check_budget(name, *run_counted(name)[1:3])


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
    tw_ports = [port for _expiry, _seq, port in client._time_wait.entries
                if port is not None]
    owning = [e for e in endpoints if e.stack is client and e.owns_port]
    in_use = EPHEMERAL_HIGH - EPHEMERAL_LOW - client.ports_available
    assert in_use == len(owning) + len(tw_ports) == 128


def test_smp_overload_time_wait_fifo_end_state(smp_overload):
    testbed = smp_overload[0].testbed
    sim = testbed.sim
    pending = [entry[2] for entry in sim._heap + sim._far
               if not entry[2].cancelled]
    pending += [t for t in sim._ready[sim._ready_head:] if not t.cancelled]
    for stack in (testbed.server_stack, testbed.client_stack):
        # the run is shorter than TIME-WAIT, so the FIFO holds every
        # entry the stack's counter saw enter
        assert sim.now < stack.time_wait_seconds
        queue = stack._time_wait
        assert len(queue.entries) == stack.counters["tcp.time_wait_entered"]
        keys = [(expiry, seq) for expiry, seq, _port in queue.entries]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        timer = queue._timer
        bound = [t for t in pending if t.fn == queue._expire]
        assert bound == ([timer] if keys else [])
        if keys:
            assert (timer.time, timer.seq) == keys[0]


#: Counts the profiler's ``call`` events per ``repro`` package over the
#: point whose ``BenchmarkPoint`` fields are the JSON in ``argv[1]`` and
#: prints them as JSON.  Comprehension code objects are left out: Python
#: 3.12 inlines them (PEP 709), so they are calls on 3.10 and 3.11 only.
COUNT_LAYER_CALLS = r"""
import json, re, sys
from repro.bench.harness import BenchmarkPoint, run_point

PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}
layer_of = {}
counts = {}

def profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    layer = layer_of.get(code)
    if layer is None:
        match = PACKAGE.search(code.co_filename)
        layer = layer_of[code] = (match.group(1) if match is not None
                                  and code.co_name not in INLINED else "")
    if layer:
        counts[layer] = counts.get(layer, 0) + 1

point = BenchmarkPoint(**json.loads(sys.argv[1]))
sys.setprofile(profile)
try:
    run_point(point)
finally:
    sys.setprofile(None)
print(json.dumps(counts))
"""


def count_layer_calls(point):
    """Count ``point``'s calls per layer in a fresh interpreter, so the
    count does not depend on what earlier tests imported: a module's
    first import runs code that a later run skips."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    fields = json.dumps(dataclasses.asdict(point))
    proc = subprocess.run([sys.executable, "-c", COUNT_LAYER_CALLS, fields],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def check_layer_budget(key, counts):
    with open(BUDGET) as fh:
        budget = json.load(fh)[key]
    over = {layer: (calls, budget.get(layer, 0))
            for layer, calls in counts.items()
            if calls > budget.get(layer, 0)}
    assert not over, f"{key}: calls over budget (counted, budget): {over}"


def test_python_calls_per_layer_within_budget():
    """thttpd-devpoll, 800 req/s, 64 idle connections, 0.5 s, seed 0."""
    check_layer_budget("layer_calls", count_layer_calls(BenchmarkPoint(
        server="thttpd-devpoll", rate=800.0, inactive=64, duration=0.5)))


def test_smp_overload_python_calls_per_layer_within_budget():
    """The golden ``smp_overload`` point: select() on 4 CPUs x 4
    workers, past the knee, 128 idle connections."""
    check_layer_budget("smp_overload_layer_calls",
                       count_layer_calls(GOLDEN["smp_overload"][0]))


def test_trajectory_newest_entry_is_the_budget():
    with open(TRAJECTORY) as fh:
        newest = json.load(fh)["entries"][-1]
    with open(BUDGET) as fh:
        budget = json.load(fh)
    for key, total in (("layer_calls", "calls"),
                       ("smp_overload_layer_calls", "smp_overload_calls")):
        assert newest[key] == budget[key], key
        assert newest[total] == sum(budget[key].values()), total
