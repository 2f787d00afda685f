"""The central telemetry bus.

A :class:`Telemetry` instance hangs off a
:class:`~repro.sim.kernel.Simulator` (``sim.telemetry``); instrumented
emit points throughout the transport and network layers do::

    tel = self.sim.telemetry
    if tel is not None:
        tel.on_cwnd(self.sim.now, self.flow_id, self.cwnd, self.ssthresh)

so a simulation without a bus pays exactly one attribute load and one
identity check per emit point — the flight recorder's "zero-cost when
disabled" contract, enforced by ``tests/test_perf.py``.

Records land in per-channel bounded rings (oldest evicted first, the
eviction counted in :attr:`Telemetry.overflow`), with 1-in-N decimation
for the sample channels when the :class:`~repro.obs.spec.TraceSpec`
asks for it.  A global emission sequence number preserves a
deterministic cross-channel merge order for export.

Queue instrumentation is indirect: queues know neither the simulator
nor the bus, so :meth:`Telemetry.queue_tap` hands the owning
:class:`~repro.net.link.Link` a :class:`QueueTap` — a tiny adapter
carrying the clock and the link name — which the link installs on its
queue and consults on enqueue/dequeue.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.records import (
    CHANNELS,
    CwndRecord,
    FaultRecord,
    PoolRecord,
    ProbeRecord,
    QueueRecord,
    Record,
    RtoRecord,
    RttRecord,
    SessionRecord,
    StateRecord,
)
from repro.obs.spec import TraceSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["QueueTap", "Telemetry"]

#: default per-channel ring capacity — generous for quick-preset sweeps
#: (a point emits a few thousand cwnd samples) while bounding a paper
#: preset's worst case to tens of MB per channel.
DEFAULT_CAPACITY = 65536


class Telemetry:
    """Bounded, decimating, seed-deterministic record sink."""

    def __init__(
        self,
        spec: Optional[TraceSpec] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("telemetry ring capacity must be >= 1")
        self.spec = spec if spec is not None else TraceSpec()
        self.capacity = capacity
        self._buffers: dict[str, deque[tuple[int, Record]]] = {
            ch: deque() for ch in CHANNELS if self.spec.wants_channel(ch)
        }
        #: records evicted from a full ring, per channel.
        self.overflow: dict[str, int] = {ch: 0 for ch in self._buffers}
        #: global emission counter: the deterministic merge key.
        self._seq = 0
        #: per-(channel, key) decimation counters.
        self._decim: dict[tuple[str, Any], int] = {}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(self, channel: str, record: Record) -> None:
        buf = self._buffers[channel]
        if len(buf) >= self.capacity:
            buf.popleft()
            self.overflow[channel] += 1
        self._seq += 1
        buf.append((self._seq, record))

    def _keep_sample(self, channel: str, key: Any) -> bool:
        """Decimation: keep the 1st of every N samples per (channel, key)."""
        step = self.spec.decimation_for(channel)
        if step <= 1:
            return True
        slot = (channel, key)
        count = self._decim.get(slot, 0)
        self._decim[slot] = count + 1
        return count % step == 0

    # ------------------------------------------------------------------
    # Emit points (called only when the bus is attached)
    # ------------------------------------------------------------------
    def on_cwnd(self, t: float, flow: int, cwnd: float, ssthresh: float) -> None:
        if "cwnd" not in self._buffers or not self.spec.wants_flow(flow):
            return
        if self._keep_sample("cwnd", flow):
            self._push("cwnd", CwndRecord(t, flow, cwnd, ssthresh))

    def on_rtt(self, t: float, flow: int, rtt: float) -> None:
        if "rtt" not in self._buffers or not self.spec.wants_flow(flow):
            return
        if self._keep_sample("rtt", flow):
            self._push("rtt", RttRecord(t, flow, rtt))

    def on_state(self, t: float, flow: int, state: str) -> None:
        if "state" not in self._buffers or not self.spec.wants_flow(flow):
            return
        self._push("state", StateRecord(t, flow, state))

    def on_probe(
        self,
        t: float,
        flow: int,
        event: str,
        saved_cwnd: Optional[float] = None,
        n_probes: Optional[int] = None,
        rtt: Optional[float] = None,
        success: Optional[bool] = None,
        factor: Optional[float] = None,
        cwnd: Optional[float] = None,
    ) -> None:
        if "probe" not in self._buffers or not self.spec.wants_flow(flow):
            return
        self._push(
            "probe",
            ProbeRecord(
                t, flow, event,
                saved_cwnd=saved_cwnd, n_probes=n_probes, rtt=rtt,
                success=success, factor=factor, cwnd=cwnd,
            ),
        )

    def on_queue_sample(self, t: float, link: str, backlog: int) -> None:
        if "queue" not in self._buffers or not self.spec.wants_link(link):
            return
        if self._keep_sample("queue", link):
            self._push("queue", QueueRecord(t, link, "sample", backlog))

    def on_queue_event(
        self, t: float, link: str, kind: str, backlog: int
    ) -> None:
        if "queue" not in self._buffers or not self.spec.wants_link(link):
            return
        self._push("queue", QueueRecord(t, link, kind, backlog))

    def on_rto(self, t: float, flow: int, rto: float, cwnd: float) -> None:
        if "rto" not in self._buffers or not self.spec.wants_flow(flow):
            return
        self._push("rto", RtoRecord(t, flow, rto, cwnd))

    def on_fault(self, t: float, description: str) -> None:
        if "fault" not in self._buffers:
            return
        self._push("fault", FaultRecord(t, description))

    def on_session(
        self,
        t: float,
        session: int,
        event: str,
        size: Optional[int] = None,
        latency: Optional[float] = None,
    ) -> None:
        if "session" not in self._buffers:
            return
        self._push(
            "session",
            SessionRecord(t, session, event, size=size, latency=latency),
        )

    def on_pool(
        self,
        t: float,
        pool: str,
        event: str,
        conn: int,
        leased: Optional[int] = None,
        idle: Optional[int] = None,
    ) -> None:
        if "pool" not in self._buffers:
            return
        self._push(
            "pool", PoolRecord(t, pool, event, conn, leased=leased, idle=idle)
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def queue_tap(self, sim: "Simulator", link_name: str) -> Optional["QueueTap"]:
        """A per-link tap for queue telemetry, or None when the queue
        channel is off (or the link is filtered out) — so disabled links
        keep a plain ``None`` on their hot path."""
        if "queue" not in self._buffers or not self.spec.wants_link(link_name):
            return None
        return QueueTap(sim, link_name, self)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self, channel: Optional[str] = None) -> list[Record]:
        """Buffered records, merged across channels in emission order."""
        if channel is not None:
            if channel not in CHANNELS:
                raise ValueError(f"unknown channel {channel!r}")
            buf = self._buffers.get(channel, ())
            return [record for _, record in buf]
        merged: list[tuple[int, Record]] = []
        for buf in self._buffers.values():
            merged.extend(buf)
        merged.sort(key=lambda item: item[0])
        return [record for _, record in merged]

    def rows(self) -> list[dict[str, Any]]:
        """JSON rows for every buffered record, in emission order."""
        return [record.row() for record in self.records()]

    def counts(self) -> dict[str, int]:
        """Buffered record count per enabled channel."""
        return {ch: len(buf) for ch, buf in self._buffers.items()}

    def total_records(self) -> int:
        return sum(len(buf) for buf in self._buffers.values())

    def clear(self) -> None:
        for buf in self._buffers.values():
            buf.clear()
        self._decim.clear()
        for ch in self.overflow:
            self.overflow[ch] = 0


class QueueTap:
    """Clock-and-name adapter between one link's queue and the bus.

    Queues other than RED hold no simulator reference, so the tap
    carries the clock and the link name on their behalf.  Links install
    it via the ``queue`` property setter; queues call it only from their
    drop/mark/evict branches.
    """

    __slots__ = ("sim", "link", "_telemetry")

    def __init__(self, sim: "Simulator", link: str, telemetry: Telemetry) -> None:
        self.sim = sim
        self.link = link
        self._telemetry = telemetry

    def sample(self, backlog: int) -> None:
        self._telemetry.on_queue_sample(self.sim.now, self.link, backlog)

    def drop(self, backlog: int) -> None:
        self._telemetry.on_queue_event(self.sim.now, self.link, "drop", backlog)

    def early_drop(self, backlog: int) -> None:
        self._telemetry.on_queue_event(
            self.sim.now, self.link, "early_drop", backlog
        )

    def mark(self, backlog: int) -> None:
        self._telemetry.on_queue_event(self.sim.now, self.link, "mark", backlog)

    def evict(self, backlog: int) -> None:
        self._telemetry.on_queue_event(self.sim.now, self.link, "evict", backlog)
