"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.invariants import InvariantViolation
from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_runs_callback_at_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_callback_args_are_passed(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.1, seen.append, 42)
        sim.run()
        assert seen == [42]

    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        for t in (3.0, 1.0, 2.0):
            sim.schedule(t, seen.append, t)
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "first")
        sim.schedule(1.0, seen.append, "second")
        sim.run()
        assert seen == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(float("nan"), lambda: None)

    def test_infinite_delay_rejected(self):
        # Regression: inf used to be accepted and park an event that
        # could never fire (while still counting as pending).
        with pytest.raises(SimulationError):
            Simulator().schedule(float("inf"), lambda: None)

    def test_schedule_at_non_finite_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_non_positive_granularity_rejected(self):
        with pytest.raises(ValueError):
            Simulator(timer_granularity=0.0)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.0, seen.append, 1)
        sim.run()
        assert seen == [1]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(0.5, seen.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == ["inner"]
        assert sim.now == 1.5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancel_one_of_many(self):
        sim = Simulator()
        seen = []
        keep = sim.schedule(1.0, seen.append, "keep")
        drop = sim.schedule(2.0, seen.append, "drop")
        drop.cancel()
        sim.run()
        assert seen == ["keep"]
        assert not keep.cancelled


class TestRestart:
    """``restart(event, delay)`` behaves as ``event.cancel()`` followed by
    ``schedule(delay, event.fn)``; a later deadline re-keys ``event``."""

    def test_later_deadline_rekeys_the_same_event(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(sim.now))
        assert sim.restart(event, 2.0) is event
        assert event.time == 2.0 and not event.cancelled
        assert sim.pending == 1
        sim.run()
        assert seen == [2.0]

    def test_earlier_deadline_returns_a_fresh_event(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(2.0, lambda: seen.append(sim.now))
        fresh = sim.restart(event, 1.0)
        assert fresh is not event and event.cancelled
        assert sim.pending == 1
        sim.run()
        assert seen == [1.0]

    def test_same_deadline_fires_after_its_ties(self):
        sim = Simulator()
        seen = []
        first = sim.schedule(1.0, lambda: seen.append("first"))
        sim.schedule(1.0, lambda: seen.append("second"))
        assert sim.restart(first, 1.0) is first
        sim.run()
        assert seen == ["second", "first"]

    def test_fired_or_cancelled_event_is_scheduled_afresh(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.run()
        again = sim.restart(event, 1.0)
        assert again is not event
        again.cancel()
        third = sim.restart(again, 0.5)
        assert third is not again
        sim.run()
        assert seen == [1.0, 1.5]

    def test_restart_from_the_event_own_callback(self):
        sim = Simulator()
        seen = []
        timer = []

        def fire():
            seen.append(sim.now)
            if len(seen) < 3:
                timer[0] = sim.restart(timer[0], 1.0)

        timer.append(sim.schedule(1.0, fire))
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_stale_entry_goes_back_to_the_wheel(self):
        # The entry queued for 10 ms surfaces at its bucket's spill and
        # is parked again in the wheel under the event's 500 ms key; the
        # heap never holds it.
        sim = Simulator()
        seen = []
        event = sim.restart(sim.schedule(0.01, lambda: seen.append(sim.now)), 0.5)
        sim.run(until=0.1)
        assert seen == [] and not sim._heap
        assert [entry[:2] for bucket in sim._wheel.values() for entry in bucket] == [
            (0.5, event.seq)
        ]
        assert sim.pending == 1 and sim.peek_time() == 0.5
        sim.run()
        assert seen == [0.5] and sim.pending == 0

    def test_cancel_after_restart(self):
        sim = Simulator()
        seen = []
        event = sim.restart(sim.schedule(0.01, seen.append, "x"), 0.02)
        event.cancel()
        assert sim.pending == 0
        sim.run()
        assert seen == []

    def test_restart_validates_the_delay_like_schedule(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                sim.restart(event, bad)
        assert event.time == 1.0 and not event.cancelled


class TestTransient:
    def test_transient_runs_and_returns_no_handle(self):
        sim = Simulator()
        seen = []
        assert sim.schedule_transient(1.0, seen.append, "x") is None
        sim.run()
        assert seen == ["x"]

    def test_transient_validation_matches_schedule(self):
        sim = Simulator()
        for delay in (-0.1, float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                sim.schedule_transient(delay, lambda: None)

    def test_transient_events_fire_exactly_once(self):
        # A chain of handle-less events; every firing must carry its
        # own (fn, args), never a stale pair.
        sim = Simulator()
        seen = []

        def chain(i):
            seen.append(i)
            if i < 50:
                sim.schedule_transient(0.001, chain, i + 1)

        sim.schedule_transient(0.001, chain, 0)
        sim.run()
        assert seen == list(range(51))

    def test_cancelled_handles_do_not_disturb_transient_events(self):
        # Cancelled regular events interleaved key-for-key with
        # handle-less ones: only the cancelled ones are skipped.
        sim = Simulator()
        seen = []
        for i in range(20):
            sim.schedule_transient(0.001 + i * 1e-4, seen.append, i)
            sim.schedule(0.001 + i * 1e-4, lambda: None).cancel()
        sim.run()
        assert seen == list(range(20))


class TestReservedKeys:
    """reserve_seq / schedule_reserved / key_passed: an event queued
    late under a reserved key runs exactly where it would have."""

    def test_reserved_event_keeps_its_place_among_ties(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, seen.append, "a")
        seq = sim.reserve_seq()
        sim.schedule_at(1.0, seen.append, "c")
        # Queued from an earlier event, long after its seq was taken.
        sim.schedule_at(0.5, sim.schedule_reserved, 1.0, seq, seen.append, "b")
        assert sim.pending == 3
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.pending == 0

    def test_queueing_under_a_passed_key_is_rejected(self):
        sim = Simulator()
        seq = sim.reserve_seq()
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.schedule_reserved(1.0, seq, lambda: None)

    def test_reserve_seq_consumes_one_number(self):
        sim = Simulator()
        assert sim.reserve_seq() + 1 == sim.reserve_seq()

    def test_key_passed_inside_the_loop_breaks_ties_by_seq(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(sim.key_passed(1.0, seq)))
        seq = sim.reserve_seq()
        sim.schedule_at(1.0, lambda: seen.append(sim.key_passed(1.0, seq)))
        sim.schedule_at(2.0, lambda: seen.append(sim.key_passed(1.0, seq)))
        sim.run()
        assert seen == [False, True, True]

    def test_key_passed_between_runs(self):
        sim = Simulator()
        early = sim.reserve_seq()
        assert not sim.key_passed(1.0, early)
        sim.run(until=1.0)
        # The slice ran everything at or before its horizon...
        assert sim.key_passed(1.0, early)
        # ...but nothing allocated since, even at the same instant.
        assert not sim.key_passed(1.0, sim.reserve_seq())
        assert not sim.key_passed(1.5, early)

    def test_key_passed_after_an_event_budget_stop(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        seq = sim.reserve_seq()
        sim.schedule_at(1.0, lambda: None)
        assert sim.step()  # stopped between the two ties
        assert not sim.key_passed(1.0, seq)
        assert sim.step()
        assert sim.key_passed(1.0, seq)


class TestRun:
    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_run_until_executes_events_at_horizon(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, seen.append, "x")
        sim.run(until=2.0)
        assert seen == ["x"]

    def test_run_resumes_after_horizon(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, seen.append, "late")
        sim.run(until=2.0)
        sim.run()
        assert seen == ["late"]
        assert sim.now == 5.0

    def test_run_with_empty_heap_keeps_time(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_max_events_limits_execution(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, seen.append, t)
        sim.run(max_events=2)
        assert seen == [1.0, 2.0]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class TestStepAndPeek:
    def test_step_executes_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(2.0, seen.append, 2)
        assert sim.step()
        assert seen == [1]

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()

    def test_step_skips_cancelled(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "cancelled").cancel()
        sim.schedule(2.0, seen.append, "live")
        assert sim.step()
        assert seen == ["live"]

    def test_peek_time(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.peek_time() == 1.0

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 2.0

    def test_pending_counts_live_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        assert sim.pending == 1

    def test_pending_counts_far_future_cancellations(self):
        # Far-future events live in the timer wheel, not the heap; the
        # count must cover them and their cancellations too.
        sim = Simulator()
        near = sim.schedule(1e-4, lambda: None)
        far = sim.schedule(10.0, lambda: None)
        assert sim.pending == 2
        far.cancel()
        assert sim.pending == 1
        near.cancel()
        far.cancel()  # idempotent
        assert sim.pending == 0

    def test_step_rejects_reentry(self):
        # Regression: step() used to ignore the _running guard, so a
        # handler could silently re-enter the scheduler.
        sim = Simulator()
        sim.schedule(1.0, sim.step)
        with pytest.raises(SimulationError):
            sim.step()

    def test_step_rejected_inside_run(self):
        sim = Simulator()
        sim.schedule(1.0, sim.step)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_feeds_invariant_monitor(self):
        # Regression: step() used to bypass the invariant monitor that
        # run() honors; both entry points must check identically.
        class _BrokenQueue:
            def __init__(self):
                from repro.net.queues import QueueStats

                self.stats = QueueStats(enqueued=5)

            def __len__(self):
                return 0

        sim = Simulator(check_invariants=True)
        sim.invariants.register_queue(_BrokenQueue(), name="broken")
        sim.schedule(1.0, lambda: None)
        with pytest.raises(InvariantViolation):
            sim.step()

    def test_step_counts_into_monitor(self):
        sim = Simulator(check_invariants=True)
        sim.schedule(1.0, lambda: None)
        assert sim.step()
        assert sim.invariants.events_seen == 1
        assert sim.invariants.checks_run >= 1

    def test_step_executes_wheel_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, seen.append, "far")  # parked in the wheel
        assert sim.step()
        assert seen == ["far"]
        assert not sim.step()


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_property_events_always_execute_in_sorted_order(delays):
    sim = Simulator()
    seen = []
    for d in delays:
        sim.schedule(d, lambda t=d: seen.append(t))
    sim.run()
    assert seen == sorted(delays)
    assert sim.now == max(delays)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40),
    st.data(),
)
def test_property_cancelled_subset_never_fires(delays, data):
    sim = Simulator()
    seen = []
    events = [sim.schedule(d, lambda t=d: seen.append(t)) for d in delays]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(events) - 1))
    )
    for i in to_cancel:
        events[i].cancel()
    sim.run()
    expected = sorted(d for i, d in enumerate(delays) if i not in to_cancel)
    assert seen == expected
