"""Shared test fixtures: tiny networks with controllable loss, a
thread-backed sweep backend for deterministic straggler timing, the
two-events-per-packet reference link, the one-event-per-item
references for the batched start sites, and a kernel that breaks
same-time ties in another order."""

from __future__ import annotations

import concurrent.futures
import heapq
from typing import Callable, Optional, Union

from repro.http.openloop import OpenLoopDriver
from repro.http.openloop.driver import OpenLoopRun
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.topology import build_star
from repro.runner import ProcessPoolBackend
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig, TcpSink, TcpSource
from repro.tcp.factory import source_class

FAST = dict(min_rto=0.01, initial_rto=0.01)
"""Millisecond-scale RTO so loss tests run in simulated milliseconds."""


class ThreadPoolBackend(ProcessPoolBackend):
    """The pool backend on threads: attempts share the test's memory, so
    in-process events can order a straggler against its retry."""

    def _make_pool(self, max_workers):
        return concurrent.futures.ThreadPoolExecutor(max_workers)


class EagerLink(Link):
    """Reference transmitter: every packet schedules its own ``_tx_done``
    (the link as it was before that event became lazy).  ``_tx_done`` is
    inherited; with ``_busy`` set for the whole serialization it is the
    old one."""

    def send(self, pkt: Packet) -> None:
        if self._busy or not self._up:
            self._queue.enqueue(pkt)
        else:
            self._transmit(pkt)

    @property
    def busy(self) -> bool:
        return self._busy

    def set_up(self) -> None:
        if self._up:
            return
        self._up = True
        if not self._busy:
            nxt = self._queue.dequeue()
            if nxt is not None:
                self._transmit(nxt)

    def _transmit(self, pkt: Packet, backlog: bool = False) -> None:
        self._busy = True
        tx = pkt.size_bytes * self._secs_per_byte
        self.stats.tx_packets += 1
        self.stats.tx_bytes += pkt.size_bytes
        self.stats.busy_time += tx
        self.sim.schedule_transient(tx, self._tx_done)
        self.sim.schedule_transient(tx + self.delay_s, self._deliver, pkt)


class PerRequestDriver(OpenLoopDriver):
    """Reference player: ``play`` as it was before same-time requests
    were batched, one kernel event per request."""

    def play(self, schedule):
        run = OpenLoopRun(offered=len(schedule))
        for request in schedule:
            self.sim.schedule_at(request.time, self._issue, request, run)
        return run


class PerItemSimulator(Simulator):
    """Reference kernel for the batched start sites, which all pass their
    items as the event's first argument: such an event is split back
    into one event per item, scheduled consecutively as the per-sender
    loops scheduled them."""

    def schedule_at(self, time, fn, *args):
        if not (args and isinstance(args[0], list)):
            return super().schedule_at(time, fn, *args)
        for item in args[0]:
            event = super().schedule_at(time, fn, [item], *args[1:])
        return event


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64's finaliser: a fixed bijection on 64-bit integers."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class TieOrderSimulator(Simulator):
    """The kernel with same-time events ordered by ``tie(seq)`` first:
    heap key ``(time, (tie(seq), seq))`` instead of ``(time, seq)``.

    ``order`` picks ``tie``: ``"fifo"`` is ``+seq`` (the kernel's own
    order, the control), ``"lifo"`` is ``-seq``, and an integer salt is
    a fixed shuffle, ``_mix64(seq ^ salt)``.  Every event goes to the
    heap; bypassing the timer wheel does not change the order.  While
    running, ``key_passed`` compares the same key, so a link's reserved
    ``_tx_done`` key stays legal.  Experiments build ``Simulator()``
    with no arguments, so :meth:`ordering` makes a subclass per order.
    """

    order: Union[str, int] = "fifo"

    @classmethod
    def ordering(cls, order: Union[str, int]) -> type[TieOrderSimulator]:
        return type(f"TieOrder_{order}", (cls,), {"order": order})

    def _key(self, seq: int) -> tuple[int, int]:
        order = self.order
        if order == "fifo":
            return (seq, seq)
        if order == "lifo":
            return (-seq, seq)
        return (_mix64(seq ^ int(order)), seq)

    def _push(self, entry):
        time, seq, fn, args, handle = entry
        key = self._key(seq)
        if handle is not None:
            # The run loop tells a restarted event's stale entry by its
            # handle's ``seq``; keep the two in the same key space.
            handle.seq = key
        heapq.heappush(self._heap, (time, key, fn, args, handle))

    def key_passed(self, time, seq):
        current = self._cur_seq  # the running event's key; an int when idle
        if time != self.now or not isinstance(current, tuple):
            return super().key_passed(time, seq)
        return self._key(seq) < current


def make_pair(
    protocol: str | type[TcpSource] = "reno",
    n_servers: int = 1,
    bandwidth: float = 1e9,
    delay: float = 50e-6,
    buffer_pkts: int = 100,
    config: Optional[TcpConfig] = None,
    ecn_threshold: Optional[int] = None,
    frontend_bandwidth: Optional[float] = None,
    **source_kwargs,
):
    """One server, one front-end, one connection of ``protocol`` — a
    registered name, or a test's own :class:`TcpSource` subclass (how a
    test observes a hook: the senders are slotted, so a method cannot be
    shadowed on an instance).

    Pass ``frontend_bandwidth`` below ``bandwidth`` to make the switch
    egress the bottleneck (required when the queue under test must form
    at a marking-capable switch port rather than the host NIC).

    Returns (sim, star, source, sink).
    """
    sim = Simulator()
    star = build_star(
        sim,
        n_servers,
        bandwidth_bps=bandwidth,
        delay_s=delay,
        buffer_pkts=buffer_pkts,
        ecn_threshold_pkts=ecn_threshold,
        frontend_bandwidth_bps=frontend_bandwidth,
    )
    if config is None:
        config = TcpConfig(**FAST)
    cls = source_class(protocol) if isinstance(protocol, str) else protocol
    source = cls(
        sim, star.servers[0], 1, star.frontend.node_id, config=config, **source_kwargs
    )
    sink = TcpSink(sim, star.frontend, flow_id=1)
    return sim, star, source, sink


def drop_seqs_once(seqs) -> Callable[[Packet], bool]:
    """Drop the first transmission of each data segment in ``seqs``."""
    pending = set(seqs)

    def should_drop(pkt: Packet) -> bool:
        if pkt.is_data and pkt.seq in pending and not pkt.is_retransmission:
            pending.discard(pkt.seq)
            return True
        return False

    return should_drop


def install_loss(link, should_drop) -> None:
    """Wrap ``link.send`` to silently discard selected packets.

    Intercepting at ``send`` (not the queue) catches packets that would
    bypass the queue straight into transmission on an idle link.  This
    relies on ``Link`` keeping its ``__dict__``: it is the one per-host
    class left unslotted, so that ``send`` can be shadowed per instance.
    """
    original = link.send

    def lossy_send(pkt: Packet) -> None:
        if should_drop(pkt):
            link.queue.stats.dropped += 1
            return
        original(pkt)

    link.send = lossy_send
