"""Unidirectional links.

A link serializes one packet at a time at ``bandwidth_bps``, then the
packet propagates for ``delay_s`` before arriving at the destination
node.  Arrivals while the transmitter is busy wait in the link's egress
queue (or are dropped by it).  A full-duplex cable is modelled as two
independent ``Link`` instances sharing nothing, exactly as in NS2.

The end of a serialization (``_tx_done``) only matters when something
waits for it, so ``_transmit`` normally just *reserves* the event's
``(time, sequence)`` key; the transmitter counts as free once the kernel
says that key has passed, and the event is queued under that same key
only when a packet joins the queue behind it.  Every event that does run
therefore keeps the exact position it had when ``_tx_done`` was always
scheduled, and an uncongested hop costs one scheduler event, not two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import LinkFaultState
    from repro.net.node import Node

__all__ = ["Link", "LinkStats"]


@dataclass(slots=True)
class LinkStats:
    """Lifetime counters for a link's transmitter."""

    tx_packets: int = 0
    tx_bytes: int = 0
    busy_time: float = 0.0


class Link:
    """One direction of a cable: ``src_node`` → ``dst_node``.

    Parameters
    ----------
    bandwidth_bps:
        Serialization rate in bits per second.
    delay_s:
        One-way propagation delay in seconds.
    queue:
        Egress queue holding packets while the transmitter is busy.
    """

    def __init__(
        self,
        sim: Simulator,
        src_node: "Node",
        dst_node: "Node",
        bandwidth_bps: float,
        delay_s: float,
        queue: DropTailQueue,
        name: str = "",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.src_node = src_node
        self.dst_node = dst_node
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.name = name or f"{src_node.name}->{dst_node.name}"
        self.queue = queue
        self.stats = LinkStats()
        #: a queued ``_tx_done`` event will restart the transmitter.
        self._busy = False
        #: key reserved for the current packet's ``_tx_done`` while it is
        #: not queued; ``_free_seq`` is -1 when there is none.
        self._free_at = 0.0
        self._free_seq = -1
        #: carrier state: False while a LinkDown fault holds the link.
        self._up = True
        #: impairment windows/counters, attached by a FaultInjector;
        #: None (the common case) costs one identity check per delivery.
        self._faults: Optional["LinkFaultState"] = None
        #: seconds per byte, so a serialization time is one multiply.
        self._secs_per_byte = 8.0 / bandwidth_bps
        #: per-delivery observers, in registration order.  A tuple
        #: replaced (never mutated) on every change, so an observer may
        #: detach mid-delivery without disturbing ``_arrive``'s loop.
        self._observers: tuple[Callable[[Packet], None], ...] = ()

    # ------------------------------------------------------------------
    @property
    def queue(self) -> DropTailQueue:
        """The egress queue.  Assignable (tests swap in RED/ECN queues,
        even mid-run); the setter migrates any resident backlog into the
        new queue and registers the new queue with the invariant
        monitor."""
        return self._queue

    @queue.setter
    def queue(self, queue: DropTailQueue) -> None:
        old = getattr(self, "_queue", None)
        if old is not None and old is not queue and len(old) > 0:
            # Mid-run swap with waiting packets: drain the old queue into
            # the new one in FIFO order.  The new queue's admission policy
            # applies — overflow (or RED early action) is charged to the
            # new queue's stats, and both queues keep their conservation
            # balance (the old one counts the handoff as dequeues).
            while True:
                pkt = old.dequeue()
                if pkt is None:
                    break
                queue.enqueue(pkt)
        self._queue = queue
        invariants = getattr(self.sim, "invariants", None)
        if invariants is not None:
            invariants.register_queue(queue, name=self.name)
        telemetry = getattr(self.sim, "telemetry", None)
        tap = (
            telemetry.queue_tap(self.sim, self.name)
            if telemetry is not None
            else None
        )
        #: flight-recorder tap; shared with the queue so its drop/mark/
        #: evict branches can report causes (None when tracing is off).
        self._tap = tap
        queue.tap = tap

    # ------------------------------------------------------------------
    # Delivery observers
    # ------------------------------------------------------------------
    def add_observer(self, fn: Callable[[Packet], None]) -> None:
        """Append a per-delivery observer (the link's one per-packet
        tap); observers run in registration order."""
        self._observers += (fn,)

    def remove_observer(self, fn: Callable[[Packet], None]) -> None:
        """Remove an observer registered with :meth:`add_observer`;
        unknown observers are ignored so teardown is idempotent and
        order-independent."""
        observers = list(self._observers)
        try:
            observers.remove(fn)
        except ValueError:
            return
        self._observers = tuple(observers)

    def send(self, pkt: Packet) -> None:
        """Entry point used by the owning node to emit ``pkt``."""
        if not self._busy:
            seq = self._free_seq
            if seq < 0 or self.sim.key_passed(self._free_at, seq):
                if self._up:
                    self._transmit(pkt, False)
                    return
            else:
                self._arm_tx_done()
        queue = self._queue
        queue.enqueue(pkt)
        tap = self._tap
        if tap is not None:
            tap.sample(len(queue))

    @property
    def busy(self) -> bool:
        """Is a packet on the transmitter (its ``_tx_done`` still ahead)?"""
        seq = self._free_seq
        return self._busy or (
            seq >= 0 and not self.sim.key_passed(self._free_at, seq)
        )

    def _arm_tx_done(self) -> None:
        """Queue the reserved ``_tx_done``: something now waits for it."""
        self._busy = True
        self.sim.schedule_reserved(self._free_at, self._free_seq, self._tx_done)
        self._free_seq = -1

    @property
    def up(self) -> bool:
        """Carrier state; False while a LinkDown fault is in force."""
        return self._up

    # ------------------------------------------------------------------
    # Fault-injection surface (driven by repro.faults.FaultInjector;
    # direct calls from experiment code trip simlint's SIM008).
    # ------------------------------------------------------------------
    def attach_fault_state(self, faults: "LinkFaultState") -> None:
        """Install the per-link impairment state the injector drives."""
        self._faults = faults

    def set_down(self) -> None:
        """Take the carrier down: arrivals keep queueing (up to the
        queue's capacity), the transmitter pauses after the in-service
        packet, and every delivery that lands while down is lost."""
        self._up = False

    def set_up(self) -> None:
        """Restore the carrier and resume draining the egress queue."""
        if self._up:
            return
        self._up = True
        if not self.busy:
            queue = self._queue
            nxt = queue.dequeue()
            if nxt is not None:
                self._transmit(nxt, len(queue) > 0)

    @property
    def backlog_pkts(self) -> int:
        """Packets waiting in the egress queue (excludes the one in service)."""
        return len(self.queue)

    # ------------------------------------------------------------------
    def _transmit(self, pkt: Packet, backlog: bool) -> None:
        size = pkt.size_bytes
        tx = size * self._secs_per_byte
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += size
        stats.busy_time += tx
        sim = self.sim
        if backlog:
            self._busy = True
            sim.schedule_transient(tx, self._tx_done)
        else:
            self._busy = False
            self._free_at = sim.now + tx
            self._free_seq = sim.reserve_seq()
        sim.schedule_transient(tx + self.delay_s, self._deliver, pkt)

    def _tx_done(self) -> None:
        if not self._up:
            # Outage began while this packet serialized: park the
            # transmitter; set_up() restarts it from the queue.
            self._busy = False
            return
        queue = self._queue
        nxt = queue.dequeue()
        if nxt is None:
            self._busy = False
        else:
            self._transmit(nxt, len(queue) > 0)
            tap = self._tap
            if tap is not None:
                tap.sample(len(queue))

    def _deliver(self, pkt: Packet) -> None:
        if not self._up:
            # The carrier dropped while the packet propagated: it is
            # lost, exactly like a cable yanked mid-flight.
            faults = self._faults
            if faults is not None:
                faults.stats.down_drops += 1
            return
        faults = self._faults
        if faults is not None:
            extra = faults.filter_delivery(pkt, self.sim.now)
            if extra < 0.0:
                return  # injected loss/corruption; counted by the state
            if extra > 0.0:
                self.sim.schedule_transient(extra, self._arrive, pkt)
                return
        self._arrive(pkt)

    def _arrive(self, pkt: Packet) -> None:
        pkt.hops += 1
        for observer in self._observers:
            observer(pkt)
        self.dst_node.receive(pkt)
