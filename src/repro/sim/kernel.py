"""Discrete-event simulation kernel.

The kernel is deliberately small: a :class:`Simulator` owns a binary heap
of :class:`Event` records ordered by ``(time, sequence)``.  Ties in time
are broken by scheduling order, which makes every run fully deterministic
for a given seed and call sequence — a property the test suite relies on
(and the golden-trace fixtures under ``tests/golden/`` pin down).

Events are cancellable in O(1) by flagging; cancelled events are skipped
when popped (lazy deletion), which is the standard approach for
simulations with many retransmission timers that are usually cancelled.

Three hot-path mechanisms keep the loop fast without changing behavior:

* **Dispatch-selected run loop** — ``run()`` picks a tight loop with no
  invariant-monitor branch when checking is off, so the common case
  never pays for the opt-in diagnostics.
* **Timer wheel** — events scheduled at least one ``timer_granularity``
  ahead are parked in coarse time buckets instead of the heap; a bucket
  is spilled into the heap (preserving exact ``(time, sequence)`` order)
  only when the clock approaches it.  Retransmission timers — which are
  overwhelmingly cancelled long before expiry — therefore never touch
  the heap at all: O(1) in, O(1) cancelled, O(1) discarded at spill.
* **Event pool** — :meth:`Simulator.schedule_transient` schedules a
  callback *without returning a handle*; because the caller provably
  holds no reference, the kernel recycles the Event record through a
  free list, eliminating allocation churn on per-packet events.
"""

from __future__ import annotations

import heapq
import math
import os
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.invariants import InvariantMonitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry

__all__ = ["Event", "Kernel", "SimulationError", "Simulator"]

_INF = float("inf")

#: free-list bound: transient events alive at once scale with busy links
#: (two per link), so a small cap covers real topologies while bounding
#: worst-case idle memory.
_POOL_CAP = 1024


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


def _noop() -> None:  # pragma: no cover - placeholder for pooled records
    """Callback held by pooled Event records between uses."""


class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only holds them to call
    :meth:`cancel` (e.g. when an ACK arrives before a retransmission
    timer fires).
    """

    __slots__ = ("time", "_seq", "fn", "args", "cancelled", "_sim", "_transient")

    def __init__(
        self, time: float, seq: int, fn: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        self.time = time
        self._seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: owning simulator while the event is queued (heap or wheel);
        #: cleared on execution/cancellation so the live-event counter
        #: is decremented exactly once per event.
        self._sim: Optional["Simulator"] = None
        #: True for handle-less events eligible for pooling.
        self._transient = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                self._sim = None
                sim._pending -= 1

    def __lt__(self, other: "Event") -> bool:
        # Exact equality is deliberate: both operands are *stored*
        # floats, and only byte-identical timestamps may fall through
        # to the sequence-number tie-break that keeps runs
        # deterministic.  # simlint: disable=SIM003
        if self.time != other.time:
            return self.time < other.time
        return self._seq < other._seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.9f}, fn={name}, {state})"


class Simulator:
    """Event-driven simulator clock and scheduler.

    Typical use::

        sim = Simulator()
        sim.schedule(0.1, app.start)
        sim.run(until=2.0)

    ``now`` is the current simulation time in seconds.  All network and
    transport components receive the simulator instance and schedule
    their own events on it.

    ``timer_granularity`` is the timer-wheel bucket width in seconds:
    events at least one bucket in the future wait in the wheel instead
    of the heap.  It is a pure performance knob — execution order is
    byte-identical for any positive value — sized by default well below
    the smallest retransmission timeout the experiments configure.
    """

    def __init__(
        self,
        check_invariants: Optional[bool] = None,
        timer_granularity: float = 0.005,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        if not timer_granularity > 0:
            raise ValueError("timer_granularity must be positive")
        self.now: float = 0.0
        self._heap: list[Event] = []
        self._seq: int = 0
        self._running = False
        self.events_executed: int = 0
        #: live (non-cancelled) events currently queued, maintained on
        #: schedule/cancel/pop so ``pending`` is O(1).
        self._pending: int = 0
        self._granularity = timer_granularity
        #: coarse timer wheel: bucket index -> events in insertion order.
        self._wheel: dict[int, list[Event]] = {}
        #: start time of the earliest non-empty bucket (inf when empty).
        self._wheel_next: float = _INF
        self._wheel_next_idx: int = 0
        #: free list of pooled transient Event records.
        self._pool: list[Event] = []
        if check_invariants is None:
            check_invariants = _invariants_default()
        #: runtime invariant checker; components self-register on it
        #: when present (see :mod:`repro.sim.invariants`).
        self.invariants: Optional[InvariantMonitor] = (
            InvariantMonitor(self) if check_invariants else None
        )
        if telemetry is None:
            telemetry = _telemetry_default()
        #: flight-recorder bus (:mod:`repro.obs`); None — the default —
        #: keeps every emit point at a single identity check.  The run
        #: loops never consult it: recording happens at the emit sites.
        self.telemetry: Optional["Telemetry"] = telemetry

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0 or not math.isfinite(delay):
            raise SimulationError(
                f"cannot schedule with negative or non-finite delay {delay!r}"
            )
        return self._schedule_event(self.now + delay, fn, args, False)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time {time!r}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, before current time {self.now!r}"
            )
        return self._schedule_event(time, fn, args, False)

    def schedule_transient(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` without returning a cancellation handle.

        Because the caller provably holds no reference to the event, the
        kernel recycles the underlying :class:`Event` record through a
        free list once it fires — the zero-allocation fast path for
        per-packet events that are never cancelled (link transmissions
        and deliveries).  Semantics are otherwise identical to
        :meth:`schedule`.
        """
        if delay < 0 or not math.isfinite(delay):
            raise SimulationError(
                f"cannot schedule with negative or non-finite delay {delay!r}"
            )
        self._schedule_event(self.now + delay, fn, args, True)

    def _schedule_event(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        transient: bool,
    ) -> Event:
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event._seq = self._seq
            event.fn = fn
            event.args = args
            event._transient = transient
        else:
            event = Event(time, self._seq, fn, args)
            event._transient = transient
        self._seq += 1
        event._sim = self
        self._pending += 1
        if time - self.now >= self._granularity:
            # Far enough out for the wheel: park it in its time bucket.
            granularity = self._granularity
            bucket = int(time / granularity)
            start = bucket * granularity
            if start > time:  # float rounding pushed the start past time
                bucket -= 1
                start = bucket * granularity
            slot = self._wheel.get(bucket)
            if slot is None:
                self._wheel[bucket] = [event]
                if start < self._wheel_next:
                    self._wheel_next = start
                    self._wheel_next_idx = bucket
            else:
                slot.append(event)
            return event
        heapq.heappush(self._heap, event)
        return event

    def _flush_due(self, limit: float) -> None:
        """Spill wheel buckets starting at or before ``limit`` into the heap.

        Events keep their original ``(time, sequence)`` keys, so heap
        order — and therefore execution order — is byte-identical to a
        wheel-less kernel.  Cancelled events are discarded here without
        ever touching the heap (their counter was decremented by
        ``cancel``); that is the wheel's payoff for timer churn.
        """
        heap = self._heap
        push = heapq.heappush
        wheel = self._wheel
        while wheel and self._wheel_next <= limit:
            for event in wheel.pop(self._wheel_next_idx):
                if event.cancelled:
                    continue
                push(heap, event)
            if wheel:
                idx = min(wheel)
                self._wheel_next = idx * self._granularity
                self._wheel_next_idx = idx
            else:
                self._wheel_next = _INF

    def _recycle(self, event: Event) -> None:
        """Return a fired transient event to the free list."""
        if len(self._pool) < _POOL_CAP:
            event.fn = _noop
            event.args = ()
            event.cancelled = False
            event._sim = None
            self._pool.append(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order until the heap drains or ``until`` passes.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` on return even if the last event fired earlier, so
        monitors sampling at the horizon see a consistent clock.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            # Dispatch once, outside the loop: the fast loop carries no
            # invariant or event-budget branches.
            if self.invariants is None and max_events is None:
                self._run_fast(until)
            else:
                self._run_checked(until, max_events)
        finally:
            self._running = False
        if self.invariants is not None:
            self.invariants.check_all()
        if until is not None and self.now < until:
            self.now = until

    def _run_fast(self, until: Optional[float]) -> None:
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        try:
            while True:
                if heap:
                    event = heap[0]
                    time = event.time
                    if self._wheel_next <= time:
                        self._flush_due(time)
                        continue
                    if event.cancelled:
                        pop(heap)
                        continue
                    if until is not None and time > until:
                        return
                    pop(heap)
                    self._pending -= 1
                    event._sim = None
                    self.now = time
                    event.fn(*event.args)
                    executed += 1
                    if event._transient:
                        self._recycle(event)
                elif self._wheel:
                    if until is not None and self._wheel_next > until:
                        return
                    self._flush_due(self._wheel_next)
                else:
                    return
        finally:
            self.events_executed += executed

    def _run_checked(self, until: Optional[float], max_events: Optional[int]) -> None:
        heap = self._heap
        pop = heapq.heappop
        invariants = self.invariants
        executed = 0
        try:
            while True:
                if heap:
                    event = heap[0]
                    time = event.time
                    if self._wheel_next <= time:
                        self._flush_due(time)
                        continue
                    if event.cancelled:
                        pop(heap)
                        continue
                    if until is not None and time > until:
                        return
                    pop(heap)
                    self._pending -= 1
                    event._sim = None
                    self.now = time
                    event.fn(*event.args)
                    executed += 1
                    if invariants is not None:
                        invariants.after_event(time)
                    if event._transient:
                        self._recycle(event)
                    if max_events is not None and executed >= max_events:
                        return
                elif self._wheel:
                    if until is not None and self._wheel_next > until:
                        return
                    self._flush_due(self._wheel_next)
                else:
                    return
        finally:
            self.events_executed += executed

    def step(self) -> bool:
        """Execute the single next pending event.  Returns False if none.

        This is ``run(max_events=1)``: the same reentrancy guard (calling
        ``step()`` from inside an event handler raises), the executed
        event feeds the invariant monitor, and the full check sweep runs
        before returning.
        """
        before = self.events_executed
        self.run(max_events=1)
        return self.events_executed > before

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while True:
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
            if heap:
                if self._wheel_next <= heap[0].time:
                    self._flush_due(heap[0].time)
                    continue
                return heap[0].time
            if self._wheel:
                self._flush_due(self._wheel_next)
                continue
            return None

    def notify_fault(self, description: str) -> None:
        """Report an injected fault (link outage, loss burst, buffer
        resize...) taking effect at the current simulation time.

        The fault-injection layer calls this as each fault event is
        applied, so the invariant monitor can keep an audit trail of
        deliberate impairments and distinguish them from genuine
        conservation violations.  A no-op when checking is off — chaos
        runs pay for the bookkeeping only when they asked for it.
        """
        if self.invariants is not None:
            self.invariants.on_fault(self.now, description)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_fault(self.now, description)

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued.  O(1)."""
        return self._pending

    def _pending_scan(self) -> int:
        """Brute-force recount of queued live events (testing aid).

        Walks the heap and every wheel bucket; the property-based kernel
        tests assert this always equals the O(1) ``pending`` counter.
        """
        count = sum(1 for e in self._heap if not e.cancelled)
        for events in self._wheel.values():
            count += sum(1 for e in events if not e.cancelled)
        return count


#: alias matching the project's "sim kernel" vocabulary:
#: ``Kernel(check_invariants=True)`` reads as the feature is documented.
Kernel = Simulator


def _invariants_default() -> bool:
    """Process-wide default for ``check_invariants``.

    The CLI's ``--check-invariants`` flag sets ``REPRO_CHECK_INVARIANTS``
    in the environment, which sweep worker processes inherit — the only
    channel that survives the pickling boundary.
    """
    return os.environ.get("REPRO_CHECK_INVARIANTS", "").strip() not in ("", "0")


def _telemetry_default() -> Optional["Telemetry"]:
    """Process-wide default telemetry bus, from ``REPRO_TRACE``.

    Mirrors :func:`_invariants_default`: the CLI's ``--trace`` flag sets
    the variable and sweep workers inherit it.  The import is deferred so
    an untraced simulation never loads :mod:`repro.obs` at all.
    """
    if not os.environ.get("REPRO_TRACE", "").strip():
        return None
    from repro.obs.capture import telemetry_from_env

    return telemetry_from_env()
