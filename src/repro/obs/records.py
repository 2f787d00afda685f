"""Typed telemetry records — the flight recorder's vocabulary.

Every record is a small frozen dataclass tagged with the *channel* it
belongs to; a channel is the unit of enabling, filtering, decimation,
and ring-buffer bounding in :class:`repro.obs.telemetry.Telemetry`.
Records serialize to flat JSON rows (``row()``) whose key set per
channel is fixed — the schema the JSONL exporter writes, the ``trace``
report reads back, and the CI smoke job round-trips.

The row encoding is deliberately minimal and deterministic: keys are
sorted by the exporter, floats keep Python's shortest ``repr`` (which
round-trips exactly), and optional fields are simply absent rather than
``null``.  Same seed ⇒ byte-identical JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional

__all__ = [
    "CHANNELS",
    "CwndRecord",
    "DispatchRecord",
    "FaultRecord",
    "PoolRecord",
    "ProbeRecord",
    "QueueRecord",
    "REQUIRED_ROW_KEYS",
    "RtoRecord",
    "RttRecord",
    "SessionRecord",
    "StateRecord",
    "validate_row",
]

#: every channel the bus knows, in display order.
CHANNELS: tuple[str, ...] = (
    "cwnd", "rtt", "state", "probe", "queue", "rto", "fault",
    "session", "pool", "dispatch",
)

#: channels carrying periodic samples; only these honour a trace spec's
#: ``@N`` decimation — discrete events (probes, drops, RTOs, faults)
#: are never thinned.
SAMPLE_CHANNELS: frozenset[str] = frozenset({"cwnd", "rtt", "queue"})

#: the keys a well-formed JSONL row must carry, per channel; extra keys
#: are allowed (optional record fields), missing ones are a schema error.
REQUIRED_ROW_KEYS: dict[str, frozenset[str]] = {
    "cwnd": frozenset({"ch", "t", "flow", "cwnd", "ssthresh"}),
    "rtt": frozenset({"ch", "t", "flow", "rtt"}),
    "state": frozenset({"ch", "t", "flow", "state"}),
    "probe": frozenset({"ch", "t", "flow", "event"}),
    "queue": frozenset({"ch", "t", "link", "kind", "backlog"}),
    "rto": frozenset({"ch", "t", "flow", "rto", "cwnd"}),
    "fault": frozenset({"ch", "t", "fault"}),
    "session": frozenset({"ch", "t", "session", "event"}),
    "pool": frozenset({"ch", "t", "pool", "event", "conn"}),
    "dispatch": frozenset({"ch", "t", "event"}),
}

#: queue-record kinds: one periodic sample plus the four event causes.
QUEUE_KINDS: tuple[str, ...] = ("sample", "drop", "early_drop", "mark", "evict")

#: probe lifecycle events (TCP-TRIM Algorithms 1 and 2).
PROBE_EVENTS: tuple[str, ...] = ("enter", "ack", "timeout", "inherit")

#: open-loop session lifecycle events (repro.http.openloop).
SESSION_EVENTS: tuple[str, ...] = ("request", "complete")

#: connection-pool lifecycle events (repro.http.openloop.pool).
POOL_EVENTS: tuple[str, ...] = (
    "open", "reuse", "checkin", "close_idle", "close_retired",
)

#: fleet-dispatch lifecycle events (repro.runner.dispatch): worker and
#: lease life cycle, retry decisions, quarantine, and the per-host
#: circuit breaker's transitions.
DISPATCH_EVENTS: tuple[str, ...] = (
    "spawn", "hello", "lease", "expire", "worker_dead", "retry",
    "result", "quarantine", "breaker_open", "breaker_probe",
    "breaker_close", "shutdown",
)


@dataclass(frozen=True, slots=True)
class CwndRecord:
    """One congestion-window sample for a flow."""

    channel: ClassVar[str] = "cwnd"
    t: float
    flow: int
    cwnd: float
    ssthresh: float

    def row(self) -> dict[str, Any]:
        return {
            "ch": "cwnd", "t": self.t, "flow": self.flow,
            "cwnd": self.cwnd, "ssthresh": self.ssthresh,
        }


@dataclass(frozen=True, slots=True)
class RttRecord:
    """One valid (Karn-filtered) RTT sample."""

    channel: ClassVar[str] = "rtt"
    t: float
    flow: int
    rtt: float

    def row(self) -> dict[str, Any]:
        return {"ch": "rtt", "t": self.t, "flow": self.flow, "rtt": self.rtt}


@dataclass(frozen=True, slots=True)
class StateRecord:
    """A sender state transition (``recovery`` / ``open`` / ``timeout``)."""

    channel: ClassVar[str] = "state"
    t: float
    flow: int
    state: str

    def row(self) -> dict[str, Any]:
        return {
            "ch": "state", "t": self.t, "flow": self.flow, "state": self.state,
        }


@dataclass(frozen=True, slots=True)
class ProbeRecord:
    """One TCP-TRIM probe lifecycle event.

    ``event`` is one of :data:`PROBE_EVENTS`; the optional fields carry
    the data each event has on hand — ``enter`` the saved window and
    probe count, ``ack`` the probe's RTT, ``inherit`` the outcome
    (success flag, Eq. 1 factor, resulting window).
    """

    channel: ClassVar[str] = "probe"
    t: float
    flow: int
    event: str
    saved_cwnd: Optional[float] = None
    n_probes: Optional[int] = None
    rtt: Optional[float] = None
    success: Optional[bool] = None
    factor: Optional[float] = None
    cwnd: Optional[float] = None

    def row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "ch": "probe", "t": self.t, "flow": self.flow, "event": self.event,
        }
        for key in ("saved_cwnd", "n_probes", "rtt", "success", "factor", "cwnd"):
            value = getattr(self, key)
            if value is not None:
                row[key] = value
        return row


@dataclass(frozen=True, slots=True)
class QueueRecord:
    """A queue occupancy sample or a drop/mark/eviction event.

    ``kind`` is one of :data:`QUEUE_KINDS`; ``backlog`` is the resident
    packet count at the moment of the record (for event kinds: the
    backlog the arriving/evicted packet saw).
    """

    channel: ClassVar[str] = "queue"
    t: float
    link: str
    kind: str
    backlog: int

    def row(self) -> dict[str, Any]:
        return {
            "ch": "queue", "t": self.t, "link": self.link,
            "kind": self.kind, "backlog": self.backlog,
        }


@dataclass(frozen=True, slots=True)
class RtoRecord:
    """A retransmission-timeout firing, after back-off was applied."""

    channel: ClassVar[str] = "rto"
    t: float
    flow: int
    rto: float
    cwnd: float

    def row(self) -> dict[str, Any]:
        return {
            "ch": "rto", "t": self.t, "flow": self.flow,
            "rto": self.rto, "cwnd": self.cwnd,
        }


@dataclass(frozen=True, slots=True)
class FaultRecord:
    """An injected fault taking effect (mirrors the invariant audit trail)."""

    channel: ClassVar[str] = "fault"
    t: float
    fault: str

    def row(self) -> dict[str, Any]:
        return {"ch": "fault", "t": self.t, "fault": self.fault}


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """One open-loop session event.

    ``event`` is one of :data:`SESSION_EVENTS`; ``size`` rides along on
    ``request`` (the response bytes asked for), ``latency`` on
    ``complete`` (request issue to response fully acknowledged).
    """

    channel: ClassVar[str] = "session"
    t: float
    session: int
    event: str
    size: Optional[int] = None
    latency: Optional[float] = None

    def row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "ch": "session", "t": self.t, "session": self.session,
            "event": self.event,
        }
        if self.size is not None:
            row["size"] = self.size
        if self.latency is not None:
            row["latency"] = self.latency
        return row


@dataclass(frozen=True, slots=True)
class PoolRecord:
    """A connection-pool transition (open/reuse/checkin/close).

    ``pool`` names the pool (one per backend server), ``conn`` the
    connection within it; ``leased``/``idle`` are the pool's occupancy
    right after the transition — the numbers whose conservation the
    open-loop property tests pin.
    """

    channel: ClassVar[str] = "pool"
    t: float
    pool: str
    event: str
    conn: int
    leased: Optional[int] = None
    idle: Optional[int] = None

    def row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "ch": "pool", "t": self.t, "pool": self.pool,
            "event": self.event, "conn": self.conn,
        }
        if self.leased is not None:
            row["leased"] = self.leased
        if self.idle is not None:
            row["idle"] = self.idle
        return row


@dataclass(frozen=True, slots=True)
class DispatchRecord:
    """One fleet-dispatch event (lease, retry, breaker, quarantine...).

    ``t`` is host-side elapsed seconds since the dispatch log's epoch —
    operational telemetry, deliberately *not* simulation time (the
    dispatcher runs outside any simulation).  ``event`` is one of
    :data:`DISPATCH_EVENTS`; the optional fields carry whatever the
    event has on hand: the worker and host involved, the point label,
    the attempt number, and a free-form ``detail`` (error signature,
    breaker state, lease deadline...).
    """

    channel: ClassVar[str] = "dispatch"
    t: float
    event: str
    worker: Optional[str] = None
    host: Optional[str] = None
    point: Optional[str] = None
    attempt: Optional[int] = None
    detail: Optional[str] = None

    def row(self) -> dict[str, Any]:
        row: dict[str, Any] = {"ch": "dispatch", "t": self.t, "event": self.event}
        for key in ("worker", "host", "point", "attempt", "detail"):
            value = getattr(self, key)
            if value is not None:
                row[key] = value
        return row


def validate_row(row: Any) -> str:
    """Check one decoded JSONL row against the channel schemas.

    Returns the row's channel on success; raises :class:`ValueError`
    naming the problem otherwise.  Used by the ``trace --check`` smoke
    mode and the export round-trip tests.
    """
    if not isinstance(row, dict):
        raise ValueError(f"trace row is not an object: {row!r}")
    channel = row.get("ch")
    if channel not in REQUIRED_ROW_KEYS:
        raise ValueError(f"unknown trace channel {channel!r} in row {row!r}")
    missing = REQUIRED_ROW_KEYS[channel] - set(row)
    if missing:
        raise ValueError(
            f"{channel} row missing key(s) {sorted(missing)}: {row!r}"
        )
    if not isinstance(row["t"], (int, float)):
        raise ValueError(f"trace row time is not a number: {row!r}")
    return channel
