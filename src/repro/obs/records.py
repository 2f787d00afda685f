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

from dataclasses import MISSING, dataclass, fields
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
    "Record",
    "RtoRecord",
    "RttRecord",
    "SessionRecord",
    "StateRecord",
    "validate_row",
]

#: channels carrying periodic samples; only these honour a trace spec's
#: ``@N`` decimation — discrete events (probes, drops, RTOs, faults)
#: are never thinned.
SAMPLE_CHANNELS: frozenset[str] = frozenset({"cwnd", "rtt", "queue"})

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
#: lease life cycle, and a resubmitted point's placement.
DISPATCH_EVENTS: tuple[str, ...] = (
    "spawn", "hello", "lease", "expire", "worker_dead", "retry",
    "result", "shutdown",
)


@dataclass(frozen=True, slots=True)
class Record:
    """What every channel's record shares: its channel tag and row form.

    A subclass's fields *are* the channel's schema: a field without a
    default is a key every row must carry, an ``Optional`` field
    defaulting to ``None`` is a key that is simply absent when unset.
    """

    channel: ClassVar[str]

    def row(self) -> dict[str, Any]:
        """The flat JSON row: ``ch`` plus every field that is not None."""
        row: dict[str, Any] = {"ch": self.channel}
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None:
                row[field.name] = value
        return row


@dataclass(frozen=True, slots=True)
class CwndRecord(Record):
    """One congestion-window sample for a flow."""

    channel: ClassVar[str] = "cwnd"
    t: float
    flow: int
    cwnd: float
    ssthresh: float


@dataclass(frozen=True, slots=True)
class RttRecord(Record):
    """One valid (Karn-filtered) RTT sample."""

    channel: ClassVar[str] = "rtt"
    t: float
    flow: int
    rtt: float


@dataclass(frozen=True, slots=True)
class StateRecord(Record):
    """A sender state transition (``recovery`` / ``open`` / ``timeout``)."""

    channel: ClassVar[str] = "state"
    t: float
    flow: int
    state: str


@dataclass(frozen=True, slots=True)
class ProbeRecord(Record):
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


@dataclass(frozen=True, slots=True)
class QueueRecord(Record):
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


@dataclass(frozen=True, slots=True)
class RtoRecord(Record):
    """A retransmission-timeout firing, after back-off was applied."""

    channel: ClassVar[str] = "rto"
    t: float
    flow: int
    rto: float
    cwnd: float


@dataclass(frozen=True, slots=True)
class FaultRecord(Record):
    """An injected fault taking effect (mirrors the invariant audit trail)."""

    channel: ClassVar[str] = "fault"
    t: float
    fault: str


@dataclass(frozen=True, slots=True)
class SessionRecord(Record):
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


@dataclass(frozen=True, slots=True)
class PoolRecord(Record):
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


@dataclass(frozen=True, slots=True)
class DispatchRecord(Record):
    """One fleet-dispatch event (spawn, lease, retry, worker death...).

    ``t`` is host-side elapsed seconds since the dispatch log's epoch —
    operational telemetry, deliberately *not* simulation time (the
    dispatcher runs outside any simulation).  ``event`` is one of
    :data:`DISPATCH_EVENTS`; the optional fields carry whatever the
    event has on hand: the worker and host involved, the point label,
    the attempt number, and a free-form ``detail`` (error signature,
    lease deadline, exit status...).
    """

    channel: ClassVar[str] = "dispatch"
    t: float
    event: str
    worker: Optional[str] = None
    host: Optional[str] = None
    point: Optional[str] = None
    attempt: Optional[int] = None
    detail: Optional[str] = None


#: one record class per channel, in display order.  (Listed, not taken
#: from ``Record.__subclasses__()``: ``slots=True`` rebuilds each class,
#: so the discarded originals show up there too.)
RECORD_TYPES: tuple[type[Record], ...] = (
    CwndRecord, RttRecord, StateRecord, ProbeRecord, QueueRecord,
    RtoRecord, FaultRecord, SessionRecord, PoolRecord, DispatchRecord,
)

#: every channel the bus knows, in display order.
CHANNELS: tuple[str, ...] = tuple(cls.channel for cls in RECORD_TYPES)

#: the keys a well-formed JSONL row must carry, per channel: ``ch`` plus
#: the record class's default-less fields.  Extra keys are allowed (the
#: optional fields), missing ones are a schema error.
REQUIRED_ROW_KEYS: dict[str, frozenset[str]] = {
    cls.channel: frozenset(
        {"ch"} | {f.name for f in fields(cls) if f.default is MISSING}
    )
    for cls in RECORD_TYPES
}

#: channels whose ``kind``/``event`` key is drawn from a closed vocabulary.
_VOCABULARIES: dict[str, tuple[str, tuple[str, ...]]] = {
    "probe": ("event", PROBE_EVENTS),
    "queue": ("kind", QUEUE_KINDS),
    "session": ("event", SESSION_EVENTS),
    "pool": ("event", POOL_EVENTS),
    "dispatch": ("event", DISPATCH_EVENTS),
}


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
    t = row["t"]
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ValueError(f"trace row time 't' is not a number: {row!r}")
    if channel in _VOCABULARIES:
        key, allowed = _VOCABULARIES[channel]
        if row[key] not in allowed:
            raise ValueError(
                f"{channel} row has unknown {key} {row[key]!r} "
                f"(allowed: {', '.join(allowed)}): {row!r}"
            )
    return channel
