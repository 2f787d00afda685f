"""Egress queues: drop-tail, ECN-threshold marking, and classic RED.

``DropTailQueue`` is the paper's COTS-switch model: a FIFO measured in
packets that silently drops arrivals once full.  ``EcnQueue`` adds
DCTCP-style marking — an arriving ECN-capable packet has CE set when the
instantaneous queue occupancy is at or above the marking threshold; it
still tail-drops at capacity, so non-ECN flows see normal losses.
``RedQueue`` implements Floyd & Jacobson's Random Early Detection as an
additional AQM substrate (NS2 ships it; the DCTCP lineage compares
against it), with an optional mark-instead-of-drop ECN mode.

There are two queues per host and more per switch, so every queue class
is slotted: a subclass declares its own ``__slots__`` (DESIGN.md, "State
layout"; ``tests/test_state_layout.py`` walks the subclasses), and every
FIFO is a bounded ``list`` that keeps nothing once drained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.packet import Packet
from repro.sim.randomness import seeded_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import QueueTap
    from repro.sim.kernel import Simulator

__all__ = ["DropTailQueue", "EcnQueue", "FairQueue", "QueueStats", "RedQueue"]


@dataclass(slots=True)
class QueueStats:
    """Counters a queue keeps over its lifetime."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    marked: int = 0
    peak_length: int = 0
    #: resident packets destroyed by a capacity shrink (fault injection's
    #: BufferResize), accounted apart from ``dropped`` so congestion
    #: losses and injected losses stay distinguishable.  Conservation:
    #: ``enqueued == dequeued + evicted + len(queue)``.
    evicted: int = 0


class DropTailQueue:
    """FIFO queue with a fixed capacity in packets.

    ``capacity_pkts`` counts waiting packets only; the packet currently
    being serialized by the link is not in the queue (matching NS2's
    DropTail accounting, which the paper's "buffer of 100 packets ⇒ at
    most 118 packets in flight" arithmetic assumes).

    The FIFO is a plain ``list``: depth is bounded by ``capacity_pkts``
    (at most 250 in every in-tree experiment), so ``pop(0)`` stays cheap,
    and a drained list frees its item array where an empty ``deque``
    keeps a 760 B block (DESIGN.md, "State layout").
    """

    __slots__ = ("capacity_pkts", "name", "stats", "_fifo", "tap")

    def __init__(self, capacity_pkts: int, name: str = "") -> None:
        if capacity_pkts < 1:
            raise ValueError("queue capacity must be at least 1 packet")
        self.capacity_pkts = capacity_pkts
        self.name = name
        self.stats = QueueStats()
        self._fifo: list[Packet] = []
        #: flight-recorder tap, installed by the owning link's ``queue``
        #: setter; queues report drop/mark/evict *causes* through it
        #: (occupancy sampling stays with the link, which has the clock).
        self.tap: Optional["QueueTap"] = None

    def __len__(self) -> int:
        return len(self._fifo)

    def enqueue(self, pkt: Packet) -> bool:
        """Add ``pkt``; returns False (and drops it) when full."""
        if len(self._fifo) >= self.capacity_pkts:
            self.stats.dropped += 1
            if self.tap is not None:
                self.tap.drop(len(self._fifo))
            return False
        self._admit(pkt)
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty."""
        if not self._fifo:
            return None
        self.stats.dequeued += 1
        return self._fifo.pop(0)

    def resize(self, capacity_pkts: int) -> int:
        """Change the capacity at runtime; returns the eviction count.

        Drop semantics, chosen to mirror a switch ASIC reclaiming buffer
        cells: when the new capacity is below the resident backlog, the
        *newest* packets are evicted (they are the ones a smaller buffer
        would have tail-dropped on arrival), counted in
        ``stats.evicted`` and reported to the tap.  Growing the capacity
        never touches resident packets.  This is the one
        sanctioned mutation of a live queue's capacity — fault plans
        reach it through ``BufferResize`` events (simlint SIM008 flags
        direct capacity writes elsewhere).
        """
        if capacity_pkts < 1:
            raise ValueError("queue capacity must be at least 1 packet")
        self.capacity_pkts = capacity_pkts
        evicted = 0
        while len(self._fifo) > capacity_pkts:
            self._fifo.pop()  # newest first
            self.stats.evicted += 1
            evicted += 1
            if self.tap is not None:
                self.tap.evict(len(self._fifo))
        return evicted

    def _admit(self, pkt: Packet) -> None:
        self._fifo.append(pkt)
        self.stats.enqueued += 1
        if len(self._fifo) > self.stats.peak_length:
            self.stats.peak_length = len(self._fifo)


class EcnQueue(DropTailQueue):
    """Drop-tail queue with DCTCP threshold marking.

    An ECN-capable arrival is CE-marked when the queue already holds at
    least ``mark_threshold_pkts`` packets (instantaneous marking, as the
    DCTCP paper prescribes for low-latency operation).
    """

    __slots__ = ("mark_threshold_pkts",)

    def __init__(
        self,
        capacity_pkts: int,
        mark_threshold_pkts: int,
        name: str = "",
    ) -> None:
        super().__init__(capacity_pkts, name)
        if not 0 < mark_threshold_pkts <= capacity_pkts:
            raise ValueError(
                "mark threshold must be in (0, capacity]; got "
                f"{mark_threshold_pkts} for capacity {capacity_pkts}"
            )
        self.mark_threshold_pkts = mark_threshold_pkts

    def enqueue(self, pkt: Packet) -> bool:
        if len(self._fifo) >= self.capacity_pkts:
            self.stats.dropped += 1
            if self.tap is not None:
                self.tap.drop(len(self._fifo))
            return False
        if pkt.ecn_capable and len(self._fifo) >= self.mark_threshold_pkts:
            pkt.ecn_ce = True
            self.stats.marked += 1
            if self.tap is not None:
                self.tap.mark(len(self._fifo))
        self._admit(pkt)
        return True

    def resize(self, capacity_pkts: int) -> int:
        """Resize, clamping the marking threshold into (0, capacity]."""
        evicted = super().resize(capacity_pkts)
        if self.mark_threshold_pkts > capacity_pkts:
            self.mark_threshold_pkts = capacity_pkts
        return evicted


class FairQueue(DropTailQueue):
    """FairQ/HSCC-style switch-assisted per-flow fairness discipline.

    The switch keeps one FIFO per flow and serves the FIFOs round-robin
    (equal-size data segments make round-robin equivalent to
    deficit-round-robin here, as in the FairQ line of work).  Shared
    buffer, two assists:

    * **longest-queue drop** — an arrival that finds the shared buffer
      full evicts the head of the currently longest per-flow backlog
      (the flow hogging the buffer pays, not the newcomer), unless the
      newcomer *is* the hog, in which case the arrival itself drops;
    * **fair-share feedback** — an ECN-capable arrival whose flow
      already holds at least ``capacity / active_flows`` packets is
      CE-marked, telling exactly the over-share senders to back off
      while under-share flows keep ramping.

    Conservation identity and the reporting surface (``stats``, ``tap``)
    match :class:`DropTailQueue` exactly, so the runtime invariant
    monitor and the flight recorder work unchanged;
    ``resize`` evicts from the longest backlogs first (the shared
    buffer reclaims cells from the hogs).
    """

    __slots__ = ("_flows", "_rr", "_resident")

    def __init__(self, capacity_pkts: int, name: str = "") -> None:
        super().__init__(capacity_pkts, name)
        #: per-flow FIFOs, insertion-ordered (dict order is the
        #: round-robin seeding order for determinism).
        self._flows: dict[int, list[Packet]] = {}
        #: round-robin service order over flows with backlog.
        self._rr: list[int] = []
        self._resident = 0

    def __len__(self) -> int:
        return self._resident

    # ------------------------------------------------------------------
    def fair_share_pkts(self) -> int:
        """Per-flow fair share of the buffer given the active flows."""
        active = sum(1 for q in self._flows.values() if q)
        return max(1, self.capacity_pkts // max(1, active))

    def backlog_of(self, flow_id: int) -> int:
        """Resident packets of one flow (0 for unknown flows)."""
        q = self._flows.get(flow_id)
        return 0 if q is None else len(q)

    def _longest_flow(self) -> int:
        """The flow with the largest backlog (ties: lowest flow id)."""
        return max(
            (fid for fid, q in self._flows.items() if q),
            key=lambda fid: (len(self._flows[fid]), -fid),
        )

    def _drop_resident_head(self, flow_id: int) -> None:
        """Remove the head packet of ``flow_id``'s FIFO to make room.

        A longest-queue-drop removal is a congestion loss (``dropped``)
        of an already-admitted packet, so it must *also*
        count as an eviction to keep the conservation identity
        ``enqueued == dequeued + evicted + resident`` balanced.
        """
        q = self._flows[flow_id]
        q.pop(0)
        if not q:
            self._rr.remove(flow_id)
        self._resident -= 1
        self.stats.dropped += 1
        self.stats.evicted += 1
        if self.tap is not None:
            self.tap.drop(self._resident)

    def enqueue(self, pkt: Packet) -> bool:
        if self._resident >= self.capacity_pkts:
            hog = self._longest_flow()
            if hog == pkt.flow_id or self.backlog_of(hog) <= 1:
                # The newcomer is the hog (or every backlog is a single
                # packet): tail-drop the arrival itself.
                self.stats.dropped += 1
                if self.tap is not None:
                    self.tap.drop(self._resident)
                return False
            self._drop_resident_head(hog)
        if (
            pkt.ecn_capable
            and self.backlog_of(pkt.flow_id) >= self.fair_share_pkts()
        ):
            pkt.ecn_ce = True
            self.stats.marked += 1
            if self.tap is not None:
                self.tap.mark(self._resident)
        self._admit(pkt)
        return True

    def _admit(self, pkt: Packet) -> None:
        q = self._flows.get(pkt.flow_id)
        if q is None:
            q = self._flows[pkt.flow_id] = []
        if not q:
            self._rr.append(pkt.flow_id)
        q.append(pkt)
        self._resident += 1
        self.stats.enqueued += 1
        if self._resident > self.stats.peak_length:
            self.stats.peak_length = self._resident

    def dequeue(self) -> Optional[Packet]:
        while self._rr:
            flow_id = self._rr.pop(0)
            q = self._flows[flow_id]
            if not q:
                continue  # emptied by a drop/evict since it was queued
            pkt = q.pop(0)
            if q:
                self._rr.append(flow_id)
            self._resident -= 1
            self.stats.dequeued += 1
            return pkt
        return None

    def resize(self, capacity_pkts: int) -> int:
        """Shrink by reclaiming cells from the longest backlogs first
        (newest packet of the hog flow each time), counted as
        evictions exactly like the drop-tail model."""
        if capacity_pkts < 1:
            raise ValueError("queue capacity must be at least 1 packet")
        self.capacity_pkts = capacity_pkts
        evicted = 0
        while self._resident > capacity_pkts:
            hog = self._longest_flow()
            q = self._flows[hog]
            q.pop()  # newest of the hog
            if not q:
                self._rr.remove(hog)
            self._resident -= 1
            self.stats.evicted += 1
            evicted += 1
            if self.tap is not None:
                self.tap.evict(self._resident)
        return evicted


class RedQueue(DropTailQueue):
    """Random Early Detection (Floyd & Jacobson 1993).

    The average queue length is an EWMA updated on every arrival, with
    the standard idle-time correction (the average decays as if ``m``
    small packets had drained while the queue sat empty, timed on
    ``sim.now``).  Between
    ``min_threshold`` and ``max_threshold`` arrivals are dropped (or
    CE-marked when ``ecn_mode`` and the packet is ECN-capable) with the
    count-corrected probability ``pa = pb / (1 − count·pb)``; at or
    above ``max_threshold`` every arrival is dropped/marked.  Physical
    capacity still tail-drops.
    """

    WEIGHT = 0.002  # the classic w_q

    __slots__ = (
        "min_threshold", "max_threshold", "max_probability", "ecn_mode",
        "mean_tx_time", "avg", "_count", "_idle_since", "_rng", "sim",
    )

    def __init__(
        self,
        sim: "Simulator",
        capacity_pkts: int,
        min_threshold: float,
        max_threshold: float,
        max_probability: float = 0.1,
        ecn_mode: bool = False,
        mean_tx_time: float = 12e-6,  # one MSS at 1 Gbps
        seed: int = 0,
        name: str = "",
    ) -> None:
        super().__init__(capacity_pkts, name)
        if not 0 < min_threshold < max_threshold <= capacity_pkts:
            raise ValueError(
                "need 0 < min_threshold < max_threshold <= capacity"
            )
        if not 0 < max_probability <= 1:
            raise ValueError("max_probability must be in (0, 1]")
        if mean_tx_time <= 0:
            raise ValueError("mean_tx_time must be positive")
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.max_probability = max_probability
        self.ecn_mode = ecn_mode
        self.mean_tx_time = mean_tx_time
        self.avg = 0.0
        self._count = -1
        self._idle_since: Optional[float] = 0.0
        self._rng = seeded_rng(seed)
        #: the clock the idle-time correction reads
        self.sim = sim

    def enqueue(self, pkt: Packet) -> bool:
        self._update_average()
        if len(self._fifo) >= self.capacity_pkts:
            self.stats.dropped += 1
            self._count = 0
            if self.tap is not None:
                self.tap.drop(len(self._fifo))
            return False
        if self._early_action():
            if self.ecn_mode and pkt.ecn_capable:
                pkt.ecn_ce = True
                self.stats.marked += 1
                if self.tap is not None:
                    self.tap.mark(len(self._fifo))
            else:
                self.stats.dropped += 1
                self._count = 0
                if self.tap is not None:
                    self.tap.early_drop(len(self._fifo))
                return False
        self._admit(pkt)
        return True

    def dequeue(self) -> Optional[Packet]:
        pkt = super().dequeue()
        if pkt is not None and not self._fifo:
            self._idle_since = self.sim.now
        return pkt

    def resize(self, capacity_pkts: int) -> int:
        """Resize, rescaling both RED thresholds when the new capacity
        falls below ``max_threshold`` (their ratio — and therefore the
        shape of the drop-probability ramp — is preserved)."""
        evicted = super().resize(capacity_pkts)
        if self.max_threshold > capacity_pkts:
            scale = capacity_pkts / self.max_threshold
            self.max_threshold = float(capacity_pkts)
            self.min_threshold *= scale
        return evicted

    # ------------------------------------------------------------------
    def _update_average(self) -> None:
        q = len(self._fifo)
        if q == 0 and self._idle_since is not None:
            # Idle correction: decay as if m packets drained meanwhile.
            m = max(0.0, (self.sim.now - self._idle_since) / self.mean_tx_time)
            self.avg *= (1.0 - self.WEIGHT) ** m
            self._idle_since = None
        else:
            self.avg = (1.0 - self.WEIGHT) * self.avg + self.WEIGHT * q

    def _early_action(self) -> bool:
        """True when RED decides to drop/mark this arrival."""
        if self.avg < self.min_threshold:
            self._count = -1
            return False
        if self.avg >= self.max_threshold:
            self._count = 0
            return True
        self._count += 1
        pb = self.max_probability * (
            (self.avg - self.min_threshold)
            / (self.max_threshold - self.min_threshold)
        )
        denominator = 1.0 - self._count * pb
        pa = 1.0 if denominator <= 0 else min(1.0, pb / denominator)
        if self._rng.random() < pa:
            self._count = 0
            return True
        return False
