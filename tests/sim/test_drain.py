"""The kernel's one drain loop, seen through every public entry point.

``run``, ``run(until)``, ``run_until``, ``step`` and ``peek`` all walk the
same schedule. Any interleaving of them must fire entries in exactly the
order one ``run()`` does, and each must stop where its contract says:
``run(until)`` fires everything at or before ``until``, ``run_until``
everything strictly before it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SchedulingInPastError, Simulator


class TestRunUntil:
    def test_event_at_until_fires_next_call_after_what_was_applied(self):
        sim = Simulator()
        log = []
        sim.call_at(100, lambda: log.append(("local", sim.now)))
        sim.run_until(100)
        assert sim.now == 100
        assert log == []
        # What the caller applies at the window edge (a boundary message
        # delivery) is ordered before the local event due at that instant.
        log.append(("applied", sim.now))
        sim.run_until(200)
        assert log == [("applied", 100), ("local", 100)]

    @pytest.mark.parametrize("resume", ["run", "step", "run_until"])
    def test_every_entry_point_fires_the_held_event(self, resume):
        sim = Simulator()
        log = []
        sim.call_at(100, lambda: log.append(sim.now))
        sim.run_until(100)
        if resume == "run":
            sim.run(until=100)
        elif resume == "step":
            sim.step()
        else:
            sim.run_until(101)
        assert log == [100]

    def test_clock_parks_at_until_when_schedule_is_empty(self):
        sim = Simulator()
        sim.run_until(500)
        assert sim.now == 500
        sim.call_at(600, lambda: None)
        sim.run_until(700)
        assert sim.now == 700
        assert sim.peek() is None

    def test_until_in_past_raises(self):
        sim = Simulator(start_time=100)
        with pytest.raises(SchedulingInPastError):
            sim.run_until(99)

    def test_until_equal_now_does_nothing(self):
        sim = Simulator(start_time=100)
        log = []
        sim.call_in(0, lambda: log.append(sim.now))
        sim.run_until(100)
        assert log == []
        assert sim.now == 100
        assert sim.peek() == 100

    def test_cancelled_head_is_skipped_without_moving_the_clock(self):
        sim = Simulator()
        log = []
        dead = sim.call_at(30, lambda: log.append(("dead", sim.now)))
        dead.cancel()
        def live_then_stop():
            log.append(("live", sim.now))
            sim.stop()

        # A live event that stops the run: the clock stays where it fired,
        # neither at the cancelled entry's time nor parked at ``until``.
        sim.call_at(60, live_then_stop)
        sim.run_until(100)
        assert log == [("live", 60)]
        assert sim.now == 60
        assert sim._cancelled_pending == 0


# -- property: any drain interleaving equals one run() -------------------------

_DELAYS = st.one_of(st.integers(0, 300), st.integers(0, 1 << 26))

_ENTRIES = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), _DELAYS, st.booleans()),
        st.tuples(st.just("call_at"), _DELAYS, st.booleans()),
        st.tuples(
            st.just("periodic"),
            st.integers(1, 1 << 22),  # period
            st.integers(1, 4),  # ticks before it cancels itself
            st.booleans(),  # cancelled up front
        ),
        # A callback that cancels an earlier entry and schedules a child.
        st.tuples(st.just("canceller"), _DELAYS, st.integers(0, 63)),
    ),
    max_size=24,
)

_COMMANDS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["run", "run_until"]),
            st.one_of(st.sampled_from([-1, 0, 0, 1]), st.integers(0, 1 << 24)),
        ),
        st.tuples(st.just("step"), st.just(0)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    max_size=30,
)


def _build(fastpath, entries):
    """A simulator loaded with ``entries``; every live firing appends
    ``(time, label)`` to the returned log."""
    sim = Simulator(fastpath=fastpath)
    log = []
    handles = []

    def logger(label):
        return lambda: log.append((sim.now, label))

    def ticker(label, period, ticks):
        def tick():
            log.append((sim.now, label))
            if task.ticks == ticks:
                task.cancel()

        task = sim.periodic(period, tick, name=label)
        return task

    def canceller(label, delay, target):
        def cancel_and_spawn():
            log.append((sim.now, label))
            handles[target % len(handles)].cancel()
            sim.call_in(delay // 2, logger(label + "-child"))

        return cancel_and_spawn

    for index, entry in enumerate(entries):
        kind = entry[0]
        label = f"{kind}-{index}"
        if kind == "timeout":
            handle = sim.call_in(entry[1], logger(label))
        elif kind == "call_at":
            handle = sim.call_at(entry[1], logger(label))
        elif kind == "periodic":
            handle = ticker(label, entry[1], entry[2])
        else:
            handle = sim.call_in(entry[1], canceller(label, entry[1], entry[2]))
        handles.append(handle)
        if kind != "canceller" and entry[-1] is True:
            handle.cancel()
    return sim, log


def _drive(sim, log, commands):
    """Drain ``sim`` through ``commands``, checking each call's contract,
    then finish with one ``run()``."""
    for command, offset in commands:
        if command == "peek":
            head = sim.peek()
            assert head is None or head >= sim.now
            continue
        if command == "step":
            head = sim.peek()
            fired = len(log)
            sim.step()
            if head is None:
                assert len(log) == fired
            else:
                assert len(log) == fired + 1 and log[-1][0] == head == sim.now
            continue
        head = sim.peek()
        bound = max(sim.now, (sim.now if head is None else head) + offset)
        fired = len(log)
        if command == "run":
            sim.run(until=bound)
            assert all(time <= bound for time, _label in log[fired:])
            after = sim.peek()
            assert after is None or after > bound
        else:
            sim.run_until(bound)
            assert all(time < bound for time, _label in log[fired:])
            after = sim.peek()
            assert after is None or after >= bound
        assert sim.now == bound
    sim.run()


@pytest.mark.parametrize("fastpath", [True, False])
@settings(max_examples=150, deadline=None)
@given(entries=_ENTRIES, commands=_COMMANDS)
def test_any_drain_interleaving_fires_like_one_run(fastpath, entries, commands):
    reference_sim, reference = _build(fastpath, entries)
    reference_sim.run()
    sim, log = _build(fastpath, entries)
    _drive(sim, log, commands)
    assert log == reference
    assert sim._cancelled_pending == reference_sim._cancelled_pending == 0
