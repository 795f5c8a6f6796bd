"""Unit tests for kernel wait queues."""

from repro.kernel.waitqueue import PollEntry, WaitQueue, next_stamp
from repro.sim.engine import Simulator
from repro.sim.process import spawn


def test_wake_all_invokes_every_entry():
    wq = WaitQueue(Simulator())
    got = []
    wq.add(lambda *a: got.append("a"))
    wq.add(lambda *a: got.append("b"))
    assert wq.wake_all() == 2
    assert got == ["a", "b"]


def test_autoremove_entries_fire_once():
    wq = WaitQueue(Simulator())
    got = []
    wq.add(lambda *a: got.append(1), autoremove=True)
    wq.wake_all()
    wq.wake_all()
    assert got == [1]
    assert len(wq) == 0


def test_persistent_entries_fire_until_removed():
    wq = WaitQueue(Simulator())
    got = []
    entry = wq.add(lambda *a: got.append(1), autoremove=False)
    wq.wake_all()
    wq.wake_all()
    assert got == [1, 1]
    wq.remove(entry)
    wq.wake_all()
    assert got == [1, 1]


def test_remove_is_idempotent():
    wq = WaitQueue(Simulator())
    entry = wq.add(lambda *a: None)
    wq.remove(entry)
    wq.remove(entry)
    assert len(wq) == 0


def test_wake_one_wakes_only_first():
    wq = WaitQueue(Simulator())
    got = []
    wq.add(lambda *a: got.append("first"))
    wq.add(lambda *a: got.append("second"))
    assert wq.wake_one() is True
    assert got == ["first"]
    assert len(wq) == 1


def test_wake_one_empty_returns_false():
    wq = WaitQueue(Simulator())
    assert wq.wake_one() is False


def test_wake_all_passes_args():
    wq = WaitQueue(Simulator())
    got = []
    wq.add(lambda *a: got.append(a))
    wq.wake_all("file", 3)
    assert got == [("file", 3)]


def test_wait_event_triggers_once_even_with_multiple_wakes():
    sim = Simulator()
    wq = WaitQueue(sim)
    ev = wq.wait_event()
    wq.wake_all()
    wq.wake_all()  # entry auto-removed; no double-trigger
    sim.run()
    assert ev.triggered


def test_process_blocks_on_wait_event():
    sim = Simulator()
    wq = WaitQueue(sim)
    out = []

    def body():
        yield wq.wait_event()
        out.append(sim.now)

    spawn(sim, body())
    sim.schedule(4.0, wq.wake_all)
    sim.run()
    assert out == [4.0]


def test_wakeups_counter():
    wq = WaitQueue(Simulator())
    wq.add(lambda *a: None, autoremove=False)
    wq.wake_all()
    wq.wake_all()
    assert wq.wakeups == 2


def test_entry_added_during_wake_not_invoked_in_same_wake():
    wq = WaitQueue(Simulator())
    got = []

    def re_adder(*a):
        got.append("outer")
        wq.add(lambda *a2: got.append("inner"))

    wq.add(re_adder)
    wq.wake_all()
    assert got == ["outer"]
    wq.wake_all()
    assert got == ["outer", "inner"]


class Owner:
    """A stand-in poll table: armed while ``armed_at`` holds a stamp."""

    armed_at = None

    def __init__(self, log):
        self.log = log

    def notified(self, entry):
        self.log.append(("table", entry.fd))


def test_armed_poll_entry_wakes_in_arm_order():
    """A poll entry registered before a plain one wakes after it when its
    table armed after the plain entry was added, and counts no wakeup
    while disarmed."""
    wq = WaitQueue(Simulator())
    got = []
    owner = Owner(got)
    entry = PollEntry(7, 0, 7)
    wq.attach(entry, owner)
    wq.add(lambda *a: got.append("plain"), autoremove=False)
    assert wq.wake_all() == 1  # disarmed, and not skipping its file
    assert got == ["plain"] and wq.wakeups == 1
    owner.armed_at = next_stamp()
    assert wq.wake_all() == 2
    assert got == ["plain", "plain", ("table", 7)]
    late = wq.add(lambda *a: got.append("late"), autoremove=False)
    del got[:]
    wq.wake_all()
    assert got == ["plain", ("table", 7), "late"]
    wq.remove(late)
    assert wq.wake_one() is True
    assert got[-1] == "plain"


def test_disarmed_poll_entry_tells_a_table_skipping_its_file():
    wq = WaitQueue(Simulator())
    got = []
    entry = PollEntry(3, 0, 3)
    wq.attach(entry, Owner(got))
    entry.mark = 0  # its table skips the file as quiet
    assert wq.wake_all() == 0 and wq.wakeups == 0
    assert got == [("table", 3)]
    assert wq.wake_one() is False  # no notify: nothing to tell
    assert got == [("table", 3)]
