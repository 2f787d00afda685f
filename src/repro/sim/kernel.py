"""Discrete-event simulation kernel.

The kernel is deliberately small: a :class:`Simulator` owns a binary heap
of ``(time, sequence, fn, args, handle)`` tuples, so heap order is a C
tuple comparison on the unique ``(time, sequence)`` prefix.  Ties in time
are broken by scheduling order, which makes every run fully deterministic
for a given seed and call sequence — a property the test suite relies on
(and the golden-trace fixtures under ``tests/golden/`` pin down).

:meth:`Simulator.schedule` returns an :class:`Event` handle that cancels
in O(1) by flagging; cancelled entries are skipped when popped (lazy
deletion), which is the standard approach for simulations with many
retransmission timers that are usually cancelled.

Five hot-path mechanisms keep the loop fast without changing behavior:

* **Dispatch-selected run loop** — ``run()`` picks a tight loop with no
  invariant-monitor branch when checking is off, so the common case
  never pays for the opt-in diagnostics.
* **Timer wheel** — events scheduled at least one ``timer_granularity``
  ahead are parked in coarse time buckets instead of the heap; a bucket
  is spilled into the heap (preserving exact ``(time, sequence)`` order)
  only when the clock approaches it.  A timer cancelled for good
  before its bucket spills never touches the heap: O(1) in, O(1)
  cancelled, O(1) discarded at spill.
* **In-place restart** — :meth:`Simulator.restart` re-arms a timer to a
  later deadline by re-keying its :class:`Event` (``time``, ``seq``)
  and leaving the queued entry where it is.  When that entry surfaces
  under its older key it is queued again under the event's own, so a
  retransmission timer restarted on every ACK keeps one queued entry
  instead of leaving a cancelled one behind per ACK.
* **Handle-less events** — :meth:`Simulator.schedule_transient` queues
  the bare tuple with no :class:`Event` at all, the cheap path for
  per-packet events that are never cancelled.
* **Reserved keys** — a component whose next event is usually a no-op
  (an idle link's end-of-serialization) takes the sequence number with
  :meth:`Simulator.reserve_seq` instead of scheduling, asks
  :meth:`Simulator.key_passed` later, and only when something depends
  on the instant queues the event under that exact key with
  :meth:`Simulator.schedule_reserved` — execution order is unchanged
  because every surviving event keeps the key it would have had.
"""

from __future__ import annotations

import heapq
import math
import os
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.invariants import InvariantMonitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry

__all__ = ["Event", "SimulationError", "Simulator"]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


class Event:
    """Cancellation handle of a scheduled callback.

    Instances are created by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only holds them to call
    :meth:`cancel` (e.g. when an ACK arrives before a retransmission
    timer fires) or to pass them to :meth:`Simulator.restart`.

    ``(time, seq)`` is the event's key — it fires exactly there, even
    when its queued entry still carries the older key it had before a
    restart.  ``seq`` is ``-1`` once the event has fired.
    """

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any]) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.9f}, fn={name}, {state})"


#: one queued event: ``(time, seq, fn, args, handle)``; ``(time, seq)`` is
#: unique, so tuple comparison never reaches ``fn``.  ``handle`` is None
#: for events nobody can cancel; an entry whose ``seq`` differs from its
#: handle's is stale (the handle was restarted) and is queued again
#: under the handle's key when it surfaces.
_Entry = tuple[float, int, Callable[..., Any], tuple[Any, ...], Optional[Event]]


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
        self._heap: list[_Entry] = []
        self._seq: int = 0
        #: sequence number of the executing event; between runs, the
        #: next unallocated one (everything queued so far at or before
        #: ``now`` has run, nothing scheduled from here on has).
        self._cur_seq: int = 0
        self._running = False
        self.events_executed: int = 0
        self._granularity = timer_granularity
        #: coarse timer wheel: bucket index -> events in insertion order.
        self._wheel: dict[int, list[_Entry]] = {}
        #: start time of the earliest non-empty bucket (inf when empty).
        self._wheel_next: float = _INF
        self._wheel_next_idx: int = 0
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
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule with negative or non-finite delay {delay!r}"
            )
        return self._schedule_handle(self.now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time {time!r}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, before current time {self.now!r}"
            )
        return self._schedule_handle(time, fn, args)

    def _schedule_handle(
        self, time: float, fn: Callable[..., Any], args: tuple[Any, ...]
    ) -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn)
        self._push((time, seq, fn, args, event))
        return event

    def restart(self, event: Event, delay: float) -> Event:
        """Re-arm the timer ``event`` to fire ``delay`` seconds from now.

        Equivalent to ``event.cancel()`` followed by
        ``schedule(delay, event.fn)`` — it takes one sequence number, so
        every other event keeps its key — and returns the event to hold
        from now on.  A deadline not earlier than the event's current
        one re-keys ``event`` in place and returns it; an earlier one,
        or an event that has fired or was cancelled, gets a fresh
        :class:`Event`.  ``event`` must have been scheduled without
        arguments: the fresh event calls ``event.fn()``.
        """
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule with negative or non-finite delay {delay!r}"
            )
        time = self.now + delay
        if event.seq == -1 or event.cancelled or time < event.time:
            event.cancel()
            return self._schedule_handle(time, event.fn, ())
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.seq = seq
        return event

    def schedule_transient(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` without returning a cancellation handle.

        No :class:`Event` is allocated — the fast path for per-packet
        events that are never cancelled (link deliveries).  Semantics
        are otherwise identical to :meth:`schedule`.
        """
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule with negative or non-finite delay {delay!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._push((self.now + delay, seq, fn, args, None))

    def reserve_seq(self) -> int:
        """Take the sequence number the next scheduled event would get."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_reserved(
        self, time: float, seq: int, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Queue a handle-less ``fn(*args)`` under the key ``(time, seq)``
        (``seq`` from :meth:`reserve_seq`), which must still be ahead."""
        if self.key_passed(time, seq):
            raise SimulationError(f"key ({time!r}, {seq}) has already passed")
        self._push((time, seq, fn, args, None))

    def key_passed(self, time: float, seq: int) -> bool:
        """Would an event keyed ``(time, seq)`` have run already?"""
        # Exact equality is deliberate: both operands are *stored*
        # floats, and only byte-identical timestamps may fall through
        # to the sequence-number tie-break that keeps runs
        # deterministic.  # simlint: disable=SIM003
        return time < self.now or (time == self.now and seq < self._cur_seq)

    def _push(self, entry: _Entry) -> None:
        time = entry[0]
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
                self._wheel[bucket] = [entry]
                if start < self._wheel_next:
                    self._wheel_next = start
                    self._wheel_next_idx = bucket
            else:
                slot.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def _flush_due(self, limit: float) -> None:
        """Spill wheel buckets starting at or before ``limit`` into the heap.

        Events keep their original ``(time, sequence)`` keys, so heap
        order — and therefore execution order — is byte-identical to a
        wheel-less kernel.  Cancelled events are discarded here without
        ever touching the heap; that is the wheel's payoff for timer
        churn.  A restarted event's stale entry is queued again under
        its event's key, usually into a later bucket.
        """
        heap = self._heap
        push = heapq.heappush
        wheel = self._wheel
        while wheel and self._wheel_next <= limit:
            for entry in wheel.pop(self._wheel_next_idx):
                handle = entry[4]
                if handle is None:
                    push(heap, entry)
                elif not handle.cancelled:
                    _, seq, fn, args, _ = entry
                    if handle.seq == seq:
                        push(heap, entry)
                    else:  # restarted: queue it under its event's key
                        self._push((handle.time, handle.seq, fn, args, handle))
            if wheel:
                idx = min(wheel)
                self._wheel_next = idx * self._granularity
                self._wheel_next_idx = idx
            else:
                self._wheel_next = _INF

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
        limit = _INF if until is None else until
        executed = 0
        try:
            while True:
                if heap:
                    time, seq, fn, args, handle = heap[0]
                    if self._wheel_next <= time:
                        self._flush_due(time)
                        continue
                    if time > limit:
                        break
                    pop(heap)
                    if handle is not None:
                        if handle.cancelled:
                            continue
                        if handle.seq != seq:  # restarted to a later key
                            self._push((handle.time, handle.seq, fn, args, handle))
                            continue
                        handle.seq = -1  # fired: restart() must reschedule
                    self.now = time
                    self._cur_seq = seq
                    fn(*args)
                    executed += 1
                elif self._wheel and self._wheel_next <= limit:
                    self._flush_due(self._wheel_next)
                else:
                    break
            # Idle again: every key at or before ``now`` has passed.
            self._cur_seq = self._seq
        finally:
            self.events_executed += executed

    def _run_checked(self, until: Optional[float], max_events: Optional[int]) -> None:
        heap = self._heap
        pop = heapq.heappop
        invariants = self.invariants
        limit = _INF if until is None else until
        executed = 0
        try:
            while True:
                if heap:
                    time, seq, fn, args, handle = heap[0]
                    if self._wheel_next <= time:
                        self._flush_due(time)
                        continue
                    if time > limit:
                        break
                    pop(heap)
                    if handle is not None:
                        if handle.cancelled:
                            continue
                        if handle.seq != seq:  # restarted to a later key
                            self._push((handle.time, handle.seq, fn, args, handle))
                            continue
                        handle.seq = -1  # fired: restart() must reschedule
                    self.now = time
                    self._cur_seq = seq
                    fn(*args)
                    executed += 1
                    if invariants is not None:
                        invariants.after_event(time)
                    if max_events is not None and executed >= max_events:
                        # Stopped mid-timestamp: ``_cur_seq`` stays on
                        # the last event so later ties have not passed.
                        return
                elif self._wheel and self._wheel_next <= limit:
                    self._flush_due(self._wheel_next)
                else:
                    break
            self._cur_seq = self._seq
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
            if heap:
                time, seq, fn, args, handle = heap[0]
                if handle is not None and (handle.cancelled or handle.seq != seq):
                    heapq.heappop(heap)
                    if not handle.cancelled:
                        self._push((handle.time, handle.seq, fn, args, handle))
                elif self._wheel_next <= time:
                    self._flush_due(time)
                else:
                    return time
            elif self._wheel:
                self._flush_due(self._wheel_next)
            else:
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
        """Number of non-cancelled events still queued.

        Walks the heap and every wheel bucket: nothing on a simulation's
        path reads this, so no event pays for a running count.  A
        restarted event still has exactly one queued entry, so it counts
        once.
        """
        queued = [self._heap, *self._wheel.values()]
        handles = [entry[4] for entries in queued for entry in entries]
        return sum(h is None or not h.cancelled for h in handles)


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
