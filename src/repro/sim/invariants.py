"""Runtime invariant checking for simulations.

An :class:`InvariantMonitor` attaches to a :class:`~repro.sim.kernel.Simulator`
created with ``check_invariants=True`` (or with the environment variable
``REPRO_CHECK_INVARIANTS=1``, which the experiment CLI's
``--check-invariants`` flag sets so worker processes inherit it).
Components self-register as they are built — links register their egress
queues, TCP sources register as flows — and the monitor then asserts,
while the simulation runs:

* **monotonic time** — executed events never move the clock backwards;
* **packet conservation** — for every registered queue,
  ``enqueued == dequeued + evicted + resident`` (drops are counted on
  arrival and never enter the FIFO; resident packets destroyed by an
  injected ``BufferResize`` are counted as ``evicted`` — so an
  uncounted drop or an unaccounted eviction breaks the balance);
* **protocol-state sanity** — per flow, ``cwnd >= 1`` segment (1 MSS),
  ``bytes_in_flight >= 0``, and flight never exceeding the high-water
  send window (+2 segments of slack for TCP-TRIM's probe pair, which
  Algorithm 1 emits below the minimum window on purpose).

The full sweep of queue/flow checks runs every
``check_every_events`` executed events and once more when ``run()``
returns; the per-event monotonicity check is O(1).  A violation raises
:class:`InvariantViolation` immediately — a corrupted simulation must
not produce a figure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.queues import DropTailQueue
    from repro.sim.kernel import Simulator
    from repro.tcp.base import TcpSource

__all__ = ["InvariantMonitor", "InvariantViolation"]

#: slack (segments) above the high-water window: TCP-TRIM's probe pair
#: is sent while the window is floored at the minimum, so flight may
#: legitimately exceed the largest window ever granted by two segments.
PROBE_SLACK_SEGMENTS = 2


class InvariantViolation(AssertionError):
    """A simulation broke a conservation or protocol-state invariant."""


class InvariantMonitor:
    """Asserts kernel, queue, and flow invariants during a run."""

    def __init__(self, sim: "Simulator", check_every_events: int = 256) -> None:
        if check_every_events < 1:
            raise ValueError("check_every_events must be >= 1")
        self.sim = sim
        self.check_every_events = check_every_events
        self.checks_run: int = 0
        self.events_seen: int = 0
        self._queues: list[tuple["DropTailQueue", str]] = []
        self._flows: list["TcpSource"] = []
        #: per-flow high-water effective send window, in segments.
        self._window_hwm: dict[int, float] = {}
        self._last_event_time: float = float("-inf")
        #: audit trail of injected faults: count and last application.
        self.faults_seen: int = 0
        self.last_fault: Optional[tuple[float, str]] = None
        self._last_fault_time: float = float("-inf")

    # ------------------------------------------------------------------
    # Registration (components call these from their constructors)
    # ------------------------------------------------------------------
    def register_queue(self, queue: Any, name: str = "") -> None:
        """Track ``queue`` (anything with ``stats`` and ``__len__``).

        Idempotent per queue object: links re-register through their
        ``queue`` setter on every swap, and a queue must not be checked
        (or counted) twice.
        """
        for registered, _ in self._queues:
            if registered is queue:
                return
        self._queues.append((queue, name or getattr(queue, "name", "") or "queue"))

    def register_flow(self, source: "TcpSource") -> None:
        self._flows.append(source)
        self._window_hwm[id(source)] = 0.0

    # ------------------------------------------------------------------
    # Hooks driven by the kernel and the sources
    # ------------------------------------------------------------------
    def after_event(self, event_time: float) -> None:
        """Called by the kernel after each executed event."""
        if event_time < self._last_event_time:
            raise InvariantViolation(
                f"event timestamps moved backwards: {event_time!r} after "
                f"{self._last_event_time!r}"
            )
        self._last_event_time = event_time
        self.events_seen += 1
        if self.events_seen % self.check_every_events == 0:
            self.check_all()

    def on_flow_send(self, source: "TcpSource") -> None:
        """Called by a source on every segment send (exact window hwm)."""
        hwm = self._window_hwm.get(id(source), 0.0)
        self._window_hwm[id(source)] = max(hwm, float(source._window_segments()))
        self._check_flow(source)

    def on_fault(self, time: float, description: str) -> None:
        """Called by the kernel when a fault event is applied.

        Keeps an audit trail (count + last fault) and asserts the fault
        schedule itself is monotonic — an injector applying faults out of
        order would silently break the determinism contract.
        """
        if time < self._last_fault_time:
            raise InvariantViolation(
                f"fault applied out of order: {description!r} at {time!r} "
                f"after a fault at {self._last_fault_time!r}"
            )
        self._last_fault_time = time
        self.faults_seen += 1
        self.last_fault = (time, description)

    # ------------------------------------------------------------------
    # The checks
    # ------------------------------------------------------------------
    def check_all(self) -> None:
        """Run every queue and flow check once."""
        self.checks_run += 1
        for queue, name in self._queues:
            self._check_queue(queue, name)
        for source in self._flows:
            self._window_hwm[id(source)] = max(
                self._window_hwm.get(id(source), 0.0),
                float(source._window_segments()),
            )
            self._check_flow(source)

    def _check_queue(self, queue: Any, name: str) -> None:
        stats = queue.stats
        resident = len(queue)
        evicted = getattr(stats, "evicted", 0)
        if stats.enqueued != stats.dequeued + evicted + resident:
            raise InvariantViolation(
                f"packet conservation broken at queue {name!r}: "
                f"enqueued={stats.enqueued} != dequeued={stats.dequeued} "
                f"+ evicted={evicted} + resident={resident} "
                f"(dropped={stats.dropped} arrivals were refused before "
                "admission and are accounted separately) — packets were "
                "created or destroyed"
            )
        if stats.enqueued < 0 or stats.dequeued < 0 or stats.dropped < 0:
            raise InvariantViolation(
                f"negative counter at queue {name!r}: {stats!r}"
            )

    def _check_flow(self, source: "TcpSource") -> None:
        # The imports wait for a violation: repro.net imports the
        # kernel, which imports this module.
        if source.cwnd < 1.0:
            from repro.net.packet import MSS_BYTES

            raise InvariantViolation(
                f"flow {source.name}: cwnd={source.cwnd!r} segments fell "
                f"below 1 MSS ({MSS_BYTES} bytes)"
            )
        flight = source.flight
        if flight < 0:
            from repro.net.packet import MSS_BYTES

            raise InvariantViolation(
                f"flow {source.name}: bytes_in_flight={flight * MSS_BYTES} < 0 "
                f"(t_seqno={source.t_seqno}, highest_ack={source.highest_ack})"
            )
        cap = self._window_hwm.get(id(source), 0.0) + PROBE_SLACK_SEGMENTS
        if flight > cap:
            raise InvariantViolation(
                f"flow {source.name}: {flight} segments in flight exceed "
                f"the high-water send window {cap} (cwnd={source.cwnd:.1f})"
            )

    @property
    def violations(self) -> int:
        """Violations observed so far.  Always 0: the monitor raises on
        the first violation, so a completed run implies a clean one."""
        return 0
