"""Hypothesis properties of the kernel's hot-path machinery.

The kernel promises byte-identical determinism and exact
``(time, scheduling-order)`` execution regardless of its internal
shortcuts — the timer wheel, lazily discarded cancellations, and the
handle-less transient events.  These properties drive randomized interleavings
of schedule / cancel / transient operations across the wheel-granularity
boundary and check each shortcut against a brute-force reference.
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Simulator

# Delays straddle the default 5 ms wheel granularity so every program
# exercises both the heap path (short) and the wheel path (long).
delays = st.one_of(
    st.floats(min_value=0.0, max_value=0.004),
    st.floats(min_value=0.0, max_value=0.5),
)

#: one operation: (delay, kind, cancel_after or None); ``cancel_after``
#: schedules a cancellation of the event that many seconds after it was
#: scheduled — sometimes before the event's own time, sometimes after.
ops = st.lists(
    st.tuples(
        delays,
        st.sampled_from(["regular", "transient"]),
        st.one_of(st.none(), delays),
    ),
    min_size=1,
    max_size=40,
)


def _run_program(sim, program, fired):
    """Schedule ``program`` on ``sim``; ``fired`` records (now, index)."""
    for i, (delay, kind, cancel_after) in enumerate(program):
        if kind == "transient":
            sim.schedule_transient(delay, lambda i=i: fired.append((sim.now, i)))
        else:
            event = sim.schedule(delay, lambda i=i: fired.append((sim.now, i)))
            if cancel_after is not None:
                sim.schedule(cancel_after, event.cancel)
    sim.run()


@settings(max_examples=60, deadline=None)
@given(program=ops)
def test_property_execution_order_total_and_deterministic(program):
    """Two identical programs produce identical firing sequences, times
    never decrease, and ties fire in scheduling order."""
    results = []
    for _ in range(2):
        fired = []
        _run_program(Simulator(), program, fired)
        results.append(fired)
    first, second = results
    assert first == second
    times = [t for t, _ in first]
    assert times == sorted(times)
    # Same-time firings must appear in scheduling (index) order.  All
    # events here are scheduled at t=0, so delay order is index-free.
    by_time = {}
    for t, i in first:
        by_time.setdefault(t, []).append(i)
    for indices in by_time.values():
        same_delay = {}
        for i in indices:
            same_delay.setdefault(program[i][0], []).append(i)
        for group in same_delay.values():
            assert group == sorted(group)


@settings(max_examples=60, deadline=None)
@given(program=ops)
def test_property_wheel_is_behavior_invisible(program):
    """A huge granularity disables the wheel entirely (every event goes
    straight to the heap); the firing sequence must be identical."""
    with_wheel = []
    _run_program(Simulator(timer_granularity=0.005), program, with_wheel)
    without_wheel = []
    _run_program(Simulator(timer_granularity=1e9), program, without_wheel)
    assert with_wheel == without_wheel


@settings(max_examples=60, deadline=None)
@given(program=ops)
def test_property_pending_matches_brute_force_scan(program):
    """``pending`` (a scan of heap + wheel) always equals the model
    count — scheduled minus cancelled minus executed — at every point
    in the run."""
    sim = Simulator()
    live = [0]
    fired = set()
    checked = []

    def counted(token, fn):
        def fire():
            live[0] -= 1
            fired.add(token)
            fn()

        live[0] += 1
        return fire

    def cancel(token, event):
        if token not in fired and not event.cancelled:
            live[0] -= 1
        event.cancel()
        event.cancel()  # idempotent

    def probe():
        checked.append(True)
        assert sim.pending == live[0]
        if sim.peek_time() is not None:
            sim.schedule(0.0005, counted(object(), probe))

    for i, (delay, kind, cancel_after) in enumerate(program):
        if kind == "transient":
            sim.schedule_transient(delay, counted(i, lambda: None))
        else:
            event = sim.schedule(delay, counted(i, lambda: None))
            if cancel_after is not None:
                sim.schedule(cancel_after, counted(object(), partial(cancel, i, event)))
        assert sim.pending == live[0]
    sim.schedule(0.0, counted(object(), probe))
    sim.run()
    assert checked
    assert sim.pending == 0 == live[0]


@settings(max_examples=60, deadline=None)
@given(program=ops)
def test_property_cancelled_never_fire_others_fire_once(program):
    """With handle-less events churning, cancelled regular events never
    fire, live ones fire exactly once, transients fire exactly once."""
    sim = Simulator()
    fired = []
    _run_program(sim, program, fired)
    counts = {}
    for _, i in fired:
        counts[i] = counts.get(i, 0) + 1
    assert all(n == 1 for n in counts.values())
    for i, (delay, kind, cancel_after) in enumerate(program):
        if kind == "transient":
            assert counts.get(i, 0) == 1
        elif cancel_after is None:
            assert counts.get(i, 0) == 1
        elif cancel_after < delay:
            # Cancelled strictly before its own time: must never fire.
            assert i not in counts
        elif cancel_after > delay:
            # Cancelled after it already fired: cancel is a no-op.
            assert counts.get(i, 0) == 1
        # cancel_after == delay is a tie: the event fires first (lower
        # sequence number), so the cancel is a no-op — but equality of
        # two drawn floats is rare enough that asserting it adds noise.


# ----------------------------------------------------------------------
# restart: re-keying in place must be indistinguishable from the
# cancel + schedule pair it replaces
# ----------------------------------------------------------------------
class CancelScheduleReference(Simulator):
    """``restart`` as ``event.cancel()`` + ``schedule(delay, event.fn)``."""

    def restart(self, event, delay):
        event.cancel()
        return self.schedule(delay, event.fn)


# Times on a 1/1024 s grid are exact in binary floating point, so equal
# deadlines really tie.  Short delays stay under the 5 ms wheel
# granularity, long ones go to the wheel.
grid_delays = st.one_of(
    st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=400)
).map(lambda k: k / 1024)

#: what a timed action does to its event: cancel it, restart it with a
#: drawn delay, or restart it to its own current deadline (an equal-time
#: tie: later in sequence order, not in time).
actions = st.one_of(
    st.just(("cancel", None)),
    st.just(("restart_same", None)),
    st.tuples(st.just("restart"), grid_delays),
)

#: one operation: (delay, kind, [(at, action, new_delay), ...]); the
#: actions run at ``at`` seconds, before or after the event's own time,
#: so a restart can hit an armed, a fired, a cancelled or an already
#: re-queued event.
restart_ops = st.lists(
    st.tuples(
        grid_delays,
        st.sampled_from(["regular", "regular", "transient"]),
        st.lists(st.tuples(grid_delays, actions), max_size=4),
    ),
    min_size=1,
    max_size=30,
)


def _load_restart_program(sim, program, fired):
    """Schedule ``program`` on ``sim``; ``fired`` records (now, index)."""
    handles = {}

    def act(i, action, delay):
        event = handles[i]
        if action == "cancel":
            event.cancel()
            return
        if action == "restart_same":
            delay = max(event.time - sim.now, 0.0)
        handles[i] = sim.restart(event, delay)

    for i, (delay, kind, timed) in enumerate(program):
        record = partial(lambda i: fired.append((sim.now, i)), i)
        if kind == "transient":
            sim.schedule_transient(delay, record)
            continue
        handles[i] = sim.schedule(delay, record)
        for at, (action, new_delay) in timed:
            sim.schedule_transient(at, act, i, action, new_delay)


def _stepped_trace(sim_cls, program, granularity, peek=True):
    """Step ``program`` one event at a time; after every step record
    what has fired, ``pending`` and (when ``peek``) ``peek_time``."""
    sim = sim_cls(timer_granularity=granularity)
    fired = []
    _load_restart_program(sim, program, fired)
    trace = []
    while True:
        state = (list(fired), sim.pending)
        trace.append(state + (sim.peek_time(),) if peek else state)
        if not sim.step():
            return trace


@settings(max_examples=80, deadline=None)
@given(program=restart_ops)
def test_property_restart_matches_cancel_and_schedule(program):
    """Firing sequence, ``peek_time`` and ``pending`` agree with the
    cancel + schedule reference at every step, wheel on and off."""
    reference = _stepped_trace(CancelScheduleReference, program, 0.005)
    for granularity in (0.005, 1e9):
        for sim_cls in (CancelScheduleReference, Simulator):
            assert _stepped_trace(sim_cls, program, granularity) == reference
        # Without peek_time, stale entries surface only in the run loop
        # and in the wheel spill it calls.
        unpeeked = [state[:2] for state in reference]
        assert _stepped_trace(Simulator, program, granularity, peek=False) == unpeeked
        sim = Simulator(timer_granularity=granularity)
        fired = []
        _load_restart_program(sim, program, fired)
        sim.run()
        assert fired == reference[-1][0]
        assert sim.pending == 0
