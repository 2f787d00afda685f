"""Keep-alive connection pools with churn.

The paper's front-ends multiplex user requests over pools of persistent
connections; what makes the workload *aggressive* is the churn — idle
timeouts close connections during OFF periods, max-reuse policies
retire them, and a burst of arrivals over an empty pool opens many cold
connections at once (a reconnect storm, each new connection restarting
slow-start).

:class:`ConnectionPool` models exactly that lease/release lifecycle on
the kernel timeline, generic over what a "connection" is (the driver
leases :class:`~repro.http.apps.HttpSession` pairs; unit tests lease
stubs).  Idle connections are reused most-recently-released first
(LIFO, the keep-alive idiom: hot connections stay hot, cold ones age
out).  Every transition is counted in :class:`PoolStats` and emitted on
the telemetry bus's ``pool`` channel, and the pool maintains the
conservation invariant the property tests pin::

    opened == closed_idle + closed_retired + leased + idle
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generic, Optional, TypeVar

from repro.sim.kernel import Event, Simulator

__all__ = ["ConnectionPool", "PoolStats"]

C = TypeVar("C")


@dataclass
class PoolStats:
    """Lifecycle counters for one pool (or a sum over pools)."""

    opened: int = 0
    closed_idle: int = 0
    closed_retired: int = 0
    reused: int = 0
    leases: int = 0

    @property
    def closed(self) -> int:
        return self.closed_idle + self.closed_retired

    @property
    def reuse_fraction(self) -> float:
        """Leases served from the idle list rather than a fresh open."""
        return self.reused / self.leases if self.leases else 0.0

    def merged(self, other: "PoolStats") -> "PoolStats":
        """Element-wise sum (aggregating per-server pools)."""
        return PoolStats(
            opened=self.opened + other.opened,
            closed_idle=self.closed_idle + other.closed_idle,
            closed_retired=self.closed_retired + other.closed_retired,
            reused=self.reused + other.reused,
            leases=self.leases + other.leases,
        )


class _Slot(Generic[C]):
    """One pooled connection's bookkeeping."""

    __slots__ = ("conn", "conn_id", "uses", "idle_timer")

    def __init__(self, conn_id: int, conn: C) -> None:
        self.conn_id = conn_id
        self.conn = conn
        self.uses = 0
        self.idle_timer: Optional[Event] = None


class ConnectionPool(Generic[C]):
    """A keep-alive pool of persistent connections to one backend.

    ``factory(conn_id)`` opens connection ``conn_id`` (ids are dense,
    starting at 0, unique per pool); ``on_close(conn)`` — if given —
    tears one down.  ``idle_timeout_s`` is the keep-alive horizon: a
    connection idle that long closes.  ``max_reuse`` retires a
    connection after that many leases (``None`` = never).  ``name``
    labels the pool's telemetry rows (one pool per backend server).
    """

    def __init__(
        self,
        sim: Simulator,
        factory: Callable[[int], C],
        idle_timeout_s: float = 0.5,
        max_reuse: Optional[int] = None,
        on_close: Optional[Callable[[C], None]] = None,
        name: str = "pool",
    ) -> None:
        if not math.isfinite(idle_timeout_s) or idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive and finite")
        if max_reuse is not None and max_reuse < 1:
            raise ValueError("max_reuse must be >= 1 (or None for unlimited)")
        self.sim = sim
        self.factory = factory
        self.idle_timeout_s = idle_timeout_s
        self.max_reuse = max_reuse
        self.on_close = on_close
        self.name = name
        self.stats = PoolStats()
        self._idle: list[_Slot[C]] = []  # LIFO: most recently released last
        self._leased: dict[int, _Slot[C]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_idle(self) -> int:
        return len(self._idle)

    @property
    def n_leased(self) -> int:
        return len(self._leased)

    def connections(self) -> list[C]:
        """The live connections, leased and idle (closed ones are gone)."""
        return [slot.conn for slot in (*self._leased.values(), *self._idle)]

    def check_conservation(self) -> None:
        """Raise if any connection was lost or double-counted."""
        accounted = self.stats.closed + self.n_leased + self.n_idle
        if self.stats.opened != accounted:
            raise AssertionError(
                f"pool {self.name!r} leaked connections: opened "
                f"{self.stats.opened} != closed {self.stats.closed} + "
                f"leased {self.n_leased} + idle {self.n_idle}"
            )

    # ------------------------------------------------------------------
    # The lease/release lifecycle
    # ------------------------------------------------------------------
    def lease(self) -> tuple[int, C]:
        """Check a connection out: reuse the hottest idle one, or open.

        Returns ``(conn_id, connection)``; the caller must eventually
        :meth:`release` the id (or :meth:`discard` it on failure).
        """
        self.stats.leases += 1
        if self._idle:
            slot = self._idle.pop()
            if slot.idle_timer is not None:
                slot.idle_timer.cancel()
                slot.idle_timer = None
            self.stats.reused += 1
            event = "reuse"
        else:
            slot = _Slot(self._next_id, self.factory(self._next_id))
            self._next_id += 1
            self.stats.opened += 1
            event = "open"
        slot.uses += 1
        self._leased[slot.conn_id] = slot
        self._emit(event, slot.conn_id)
        return slot.conn_id, slot.conn

    def release(self, conn_id: int) -> None:
        """Check a connection back in (idle-arm it or retire it)."""
        slot = self._take_leased(conn_id)
        if self.max_reuse is not None and slot.uses >= self.max_reuse:
            self._close(slot, "close_retired")
            self.stats.closed_retired += 1
            return
        slot.idle_timer = self.sim.schedule(
            self.idle_timeout_s, self._expire, slot
        )
        self._idle.append(slot)
        self._emit("checkin", conn_id)

    def discard(self, conn_id: int) -> None:
        """Drop a leased connection without pooling it (request failed)."""
        slot = self._take_leased(conn_id)
        self._close(slot, "close_retired")
        self.stats.closed_retired += 1

    def _take_leased(self, conn_id: int) -> _Slot[C]:
        try:
            return self._leased.pop(conn_id)
        except KeyError:
            raise ValueError(
                f"connection {conn_id} is not leased from pool {self.name!r}"
            ) from None

    def _expire(self, slot: _Slot[C]) -> None:
        """Idle timer fired: the keep-alive horizon passed unused."""
        slot.idle_timer = None
        self._idle.remove(slot)
        self._close(slot, "close_idle")
        self.stats.closed_idle += 1

    def _close(self, slot: _Slot[C], event: str) -> None:
        if slot.idle_timer is not None:
            slot.idle_timer.cancel()
            slot.idle_timer = None
        if self.on_close is not None:
            self.on_close(slot.conn)
        self._emit(event, slot.conn_id)

    def _emit(self, event: str, conn_id: int) -> None:
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_pool(
                self.sim.now,
                self.name,
                event,
                conn_id,
                leased=self.n_leased,
                idle=self.n_idle,
            )
