"""Segment-level TCP machinery: the sender (:class:`TcpSource`) and the
receiver (:class:`TcpSink`).

The base sender implements TCP Reno as NS2's ``Agent/TCP/Reno`` does:

* sequence numbers count segments, the window is a float number of
  segments;
* slow start (+1 per ACK) below ``ssthresh``, congestion avoidance
  (+1/cwnd per ACK) above — with *no* congestion-window validation, so
  an application-limited connection keeps inflating its window on every
  ACK.  That deliberate fidelity to legacy TCP is what reproduces the
  paper's "window near 900 inherited into the next ON period" pathology;
* fast retransmit on three duplicate ACKs with Reno fast recovery
  (window inflation, deflate-and-exit on the first new ACK) or optional
  NewReno partial-ACK retransmission;
* go-back-N retransmission after an RTO, with exponential backoff and
  Karn's rule.

Protocol variants subclass and override the small hook surface
(`_before_send_new`, `_on_ack_pre_increase`, `_increase_window`,
`_halve_window_on_loss`, `_after_timeout`).  Application data arrives in
*messages* (HTTP responses / packet trains) via :meth:`TcpSource.send_message`;
message completion is detected from cumulative ACKs, which is what the
paper's completion-time metrics measure.

State layout: sender and sink are slotted (a new attribute goes into the
class's ``__slots__``; ``tests/test_state_layout.py`` says so if it is
forgotten), and the scoreboards only loss recovery writes start as one
shared empty ``frozenset`` that the first write replaces with the
connection's own ``set`` — DESIGN.md, "State layout".
"""

from __future__ import annotations

import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.node import Host
from repro.net.packet import ACK, DATA, MSS_BYTES, Packet, make_ack
from repro.sim.kernel import Event, Simulator
from repro.tcp.rtt import RttEstimator

__all__ = ["Message", "TcpConfig", "TcpSink", "TcpSource"]

RENO = "reno"
NEWRENO = "newreno"

#: the window a connection starts with and restarts from after an RTO
INITIAL_CWND = 2.0
#: the empty scoreboard every connection shares until loss recovery first
#: writes one; never mutated, only replaced (DESIGN.md, "State layout")
_NO_SEQS: AbstractSet[int] = frozenset()


def _writable(seqs: AbstractSet[int]) -> set[int]:
    """``seqs`` itself once it is a connection's own set, else a fresh
    one for the caller to store in place of the shared sentinel."""
    return seqs if isinstance(seqs, set) else set()


@dataclass
class TcpConfig:
    """Tunables shared by all protocol variants."""

    mss_bytes: int = MSS_BYTES
    #: effectively "slow start until first loss", matching the paper's
    #: observed window growth to ~900 segments.
    initial_ssthresh: float = 1e12
    max_cwnd: float = 1e12
    min_rto: float = 0.2
    initial_rto: float = 0.2
    max_rto: float = 60.0
    dupack_threshold: int = 3
    #: the paper sets TCP's minimum window to 2 (Sec. III.C).
    min_cwnd: float = 2.0
    ecn_capable: bool = False
    recovery: str = RENO  # or NEWRENO
    #: selective acknowledgments: the sender keeps a scoreboard of
    #: receiver-held segments and retransmits one *unsacked* hole per
    #: incoming dupACK during recovery — repairing multi-loss windows in
    #: about one RTT, as Linux SACK recovery does.  Implies NewReno-style
    #: partial-ACK handling (a partial ACK cannot end recovery early).
    sack: bool = False
    #: packet pacing: instead of dumping every window-permitted segment
    #: back-to-back, new segments are spaced ``srtt / cwnd`` apart (the
    #: TIMELY-era rate shaping).  An ablation knob: pacing smears the
    #: inherited-window burst over an RTT but does not shrink it, so it
    #: softens — without fixing — the paper's inheritance problem.
    pacing: bool = False

    def __post_init__(self) -> None:
        if self.recovery not in (RENO, NEWRENO):
            raise ValueError(f"unknown recovery style {self.recovery!r}")


@dataclass(slots=True)
class Message:
    """One application message (an HTTP response / packet train)."""

    message_id: int
    start_seq: int
    end_seq: int  # exclusive
    submit_time: float
    finish_time: Optional[float] = None
    #: one-shot: cleared just before it is called, so whatever the
    #: closure holds is released at completion, not at the end of the run
    on_complete: Optional[Callable[["Message"], None]] = None

    @property
    def n_segments(self) -> int:
        return self.end_seq - self.start_seq

    @property
    def completion_time(self) -> float:
        if self.finish_time is None:
            raise ValueError(f"message {self.message_id} has not completed")
        return self.finish_time - self.submit_time


@dataclass(slots=True)
class SourceStats:
    """Lifetime counters kept by a sender."""

    segments_sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    acks_received: int = 0


class TcpSource:
    """A TCP sender attached to a host, talking to one sink.

    The application queues data with :meth:`send_message`; the source
    transmits as the congestion window allows and reports completion of
    each message when its last segment is cumulatively ACKed.  The source
    forgets a message once it completes: the caller keeps the
    :class:`Message` it is given.
    """

    protocol_name = "reno"

    __slots__ = (
        "sim", "host", "flow_id", "dst_id", "config", "name",
        "cwnd", "ssthresh", "t_seqno", "highest_ack", "max_seq_sent", "app_limit",
        "dupacks", "in_recovery", "recover_seq", "suspended", "last_send_time",
        "rtt", "stats", "_sacked", "_recovery_retx",
        "_pending_messages", "_rtx_event", "_pace_event", "_next_pace_time",
        "_next_message_id", "_invariants",
    )

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        dst_id: int,
        config: Optional[TcpConfig] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.dst_id = dst_id
        self.config = config or TcpConfig()
        self.name = name or f"{self.protocol_name}-{flow_id}"
        host.attach_agent(flow_id, self)

        cfg = self.config
        self.cwnd: float = INITIAL_CWND
        self.ssthresh: float = cfg.initial_ssthresh
        self.t_seqno: int = 0  # next segment to transmit
        self.highest_ack: int = -1  # highest cumulative ACK seen
        self.max_seq_sent: int = -1
        self.app_limit: int = 0  # total segments the app has queued
        self.dupacks: int = 0
        self.in_recovery: bool = False
        self.recover_seq: int = -1
        self.suspended: bool = False  # set by TCP-TRIM while probing
        self.last_send_time: Optional[float] = None
        self.rtt = RttEstimator(
            min_rto=cfg.min_rto, max_rto=cfg.max_rto, initial_rto=cfg.initial_rto
        )
        self.stats = SourceStats()
        self._sacked: AbstractSet[int] = _NO_SEQS  # SACK scoreboard
        self._recovery_retx: AbstractSet[int] = _NO_SEQS  # holes already resent
        self._pending_messages: list[Message] = []  # completion FIFO, 1-few long
        self._rtx_event: Optional[Event] = None
        self._pace_event: Optional[Event] = None
        self._next_pace_time: float = 0.0
        self._next_message_id = 0
        self._invariants = getattr(sim, "invariants", None)
        if self._invariants is not None:
            self._invariants.register_flow(self)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send_message(
        self,
        n_segments: int,
        on_complete: Optional[Callable[[Message], None]] = None,
    ) -> Message:
        """Queue ``n_segments`` MSS-sized segments for transmission."""
        if n_segments < 1:
            raise ValueError("a message needs at least one segment")
        message = Message(
            message_id=self._next_message_id,
            start_seq=self.app_limit,
            end_seq=self.app_limit + n_segments,
            submit_time=self.sim.now,
            on_complete=on_complete,
        )
        self._next_message_id += 1
        self.app_limit += n_segments
        self._pending_messages.append(message)
        self._try_send()
        return message

    def send_bytes(
        self,
        n_bytes: int,
        on_complete: Optional[Callable[[Message], None]] = None,
    ) -> Message:
        """Queue a message of ``ceil(n_bytes / mss)`` segments."""
        if n_bytes < 1:
            raise ValueError("a message needs at least one byte")
        segments = max(1, math.ceil(n_bytes / self.config.mss_bytes))
        return self.send_message(segments, on_complete=on_complete)

    def stop(self) -> None:
        """Stop offering new data: truncate the queued stream at the
        current send point.  Outstanding segments still retransmit until
        acknowledged; messages cut short never complete.  Used to model
        long-lived senders being switched off (Fig. 10's staggered
        stops)."""
        self.app_limit = min(self.app_limit, max(self.t_seqno, self.max_seq_sent + 1))
        self._pending_messages = [
            m for m in self._pending_messages if m.end_seq <= self.app_limit
        ]

    @property
    def flight(self) -> int:
        """Segments sent but not yet cumulatively acknowledged."""
        return self.t_seqno - (self.highest_ack + 1)

    @property
    def all_acked(self) -> bool:
        """True when every queued segment has been cumulatively ACKed."""
        return self.highest_ack + 1 >= self.app_limit

    @property
    def timeouts(self) -> int:
        return self.stats.timeouts

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _window_segments(self) -> int:
        """Effective send window: the congestion window, capped at
        ``max_cwnd`` (the sink's buffer is unbounded)."""
        return int(min(self.cwnd, self.config.max_cwnd))

    def _try_send(self) -> None:
        """Transmit as many new segments as window, data — and when
        pacing is on, the ``srtt/cwnd`` send spacing — allow."""
        # Loop-invariant loads hoisted out of the send loop.  app_limit
        # and highest_ack cannot change mid-loop (no ACK can arrive
        # between our own sends); t_seqno and the window must stay live
        # because the _before_send_new hook mutates them (TCP-TRIM's
        # probe mode, GIP's window restart).
        pacing = self.config.pacing
        app_limit = self.app_limit
        base = self.highest_ack + 1
        while (
            not self.suspended
            and self.t_seqno < app_limit
            and self.t_seqno - base < self._window_segments()
        ):
            if self.t_seqno > self.max_seq_sent and not self._before_send_new():
                break
            if pacing and not self._pacing_permits():
                break
            self._send_segment(self.t_seqno)
            self.t_seqno += 1

    def _pacing_permits(self) -> bool:
        """True when the pacing clock allows a send now; otherwise a
        resume is scheduled and the send loop must stop."""
        srtt = self.rtt.srtt
        if srtt is None:
            return True  # no RTT estimate yet: first flight unpaced
        if self.sim.now + 1e-15 < self._next_pace_time:
            if self._pace_event is None:
                self._pace_event = self.sim.schedule_at(
                    self._next_pace_time, self._on_pace_timer
                )
            return False
        interval = srtt / max(self.cwnd, 1.0)
        self._next_pace_time = max(self._next_pace_time, self.sim.now) + interval
        return True

    def _on_pace_timer(self) -> None:
        self._pace_event = None
        self._try_send()

    def _send_segment(self, seq: int, probe: bool = False) -> None:
        is_retx = seq <= self.max_seq_sent
        pkt = Packet(
            flow_id=self.flow_id,
            src=self.host.node_id,
            dst=self.dst_id,
            kind=DATA,
            seq=seq,
            size_bytes=self.config.mss_bytes,
            ts=self.sim.now,
            is_retransmission=is_retx,
            is_probe=probe,
            ecn_capable=self.config.ecn_capable,
        )
        self.stats.segments_sent += 1
        if is_retx:
            self.stats.retransmits += 1
        self.max_seq_sent = max(self.max_seq_sent, seq)
        self.last_send_time = self.sim.now
        self._on_segment_sent(seq, is_retx, probe)
        if self._invariants is not None:
            self._invariants.on_flow_send(self)
        self.host.send(pkt)
        if self._rtx_event is None:
            self._set_rtx_timer()

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def receive_packet(self, pkt: Packet) -> None:
        if pkt.kind != ACK:
            raise RuntimeError(f"{self.name}: source received non-ACK packet")
        self.stats.acks_received += 1
        if self.config.sack:
            self._update_scoreboard(pkt)
        if pkt.ack > self.highest_ack:
            self._handle_new_ack(pkt)
        else:
            self._handle_dupack(pkt)

    def _update_scoreboard(self, pkt: Packet) -> None:
        if pkt.sack_blocks:
            self._sacked = sacked = _writable(self._sacked)
            for start, end in pkt.sack_blocks:
                sacked.update(range(start, end))
        if self._sacked and pkt.ack >= self.highest_ack:
            self._sacked = {s for s in self._sacked if s > pkt.ack}

    def _mark_resent(self, seq: int) -> None:
        """Remember ``seq`` as already resent this recovery episode."""
        self._recovery_retx = resent = _writable(self._recovery_retx)
        resent.add(seq)

    def _next_hole(self) -> Optional[int]:
        """Lowest segment inferred lost: below the highest SACKed
        segment (RFC 6675's loss inference — data above it has arrived,
        so the hole is not merely reordered), neither SACKed nor already
        resent this recovery episode."""
        if not self._sacked:
            return None
        bound = max(self._sacked)
        seq = self.highest_ack + 1
        while seq < bound:
            if seq not in self._sacked and seq not in self._recovery_retx:
                return seq
            seq += 1
        return None

    def _handle_new_ack(self, pkt: Packet) -> None:
        newly_acked = pkt.ack - self.highest_ack
        self.highest_ack = pkt.ack
        if self.t_seqno < self.highest_ack + 1:
            self.t_seqno = self.highest_ack + 1

        if not pkt.echo_retx:  # Karn's rule
            rtt_sample = self.sim.now - pkt.ts_echo
            self.rtt.sample(rtt_sample)
            self._on_rtt_sample(rtt_sample, pkt)
            tel = self.sim.telemetry
            if tel is not None:
                tel.on_rtt(self.sim.now, self.flow_id, rtt_sample)

        if self.in_recovery:
            self._new_ack_in_recovery(newly_acked, pkt)
        else:
            self.dupacks = 0
            suppress = self._on_ack_pre_increase(newly_acked, pkt)
            if not suppress:
                self._increase_window(newly_acked, pkt)

        self._clamp_cwnd()
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_cwnd(self.sim.now, self.flow_id, self.cwnd, self.ssthresh)
        self._complete_messages()
        if self.flight > 0:
            self._set_rtx_timer()
        else:
            self._cancel_rtx_timer()
        self._try_send()

    def _new_ack_in_recovery(self, newly_acked: int, pkt: Packet) -> None:
        partial_ack_repairs = (
            self.config.recovery == NEWRENO or self.config.sack
        )
        if partial_ack_repairs and pkt.ack < self.recover_seq:
            # Partial ACK: retransmit the next hole, stay in recovery.
            self.cwnd = max(self.config.min_cwnd, self.cwnd - newly_acked + 1)
            hole = self._next_hole() if self.config.sack else self.highest_ack + 1
            if hole is not None:
                self._send_segment(hole)
                self._mark_resent(hole)
            self._set_rtx_timer()
            return
        # Full ACK (or plain Reno): deflate to ssthresh and exit.
        self.in_recovery = False
        self.dupacks = 0
        self._recovery_retx = _NO_SEQS
        self.cwnd = max(self.config.min_cwnd, self.ssthresh)
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_state(self.sim.now, self.flow_id, "open")

    def _handle_dupack(self, pkt: Packet) -> None:
        if self.flight <= 0:
            return  # stale ACK, nothing outstanding
        self.dupacks += 1
        if self.in_recovery:
            self.cwnd += 1.0  # window inflation per extra dupack
            if self.config.sack:
                # Packet conservation: this ACK's transmission slot goes
                # to the next unsacked hole when one exists.
                hole = self._next_hole()
                if hole is not None:
                    self._send_segment(hole)
                    self._mark_resent(hole)
                    return
            self._try_send()
        elif self.dupacks == self.config.dupack_threshold:
            self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        self.in_recovery = True
        self.recover_seq = self.t_seqno - 1
        self._recovery_retx = _NO_SEQS
        self.ssthresh = self._halve_window_on_loss()
        self.cwnd = self.ssthresh + self.config.dupack_threshold
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_state(self.sim.now, self.flow_id, "recovery")
            tel.on_cwnd(self.sim.now, self.flow_id, self.cwnd, self.ssthresh)
        self._send_segment(self.highest_ack + 1)
        self._mark_resent(self.highest_ack + 1)
        self._set_rtx_timer()

    def _halve_window_on_loss(self) -> float:
        """New ssthresh after a fast-retransmit loss event (Reno: half)."""
        return max(self.flight / 2.0, self.config.min_cwnd)

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------
    def _set_rtx_timer(self) -> None:
        # RFC 6298 5.3: restarted on every new ACK, so re-key the armed
        # timer rather than leave a cancelled one queued per ACK.
        event = self._rtx_event
        if event is None:
            self._rtx_event = self.sim.schedule(self.rtt.rto, self._on_rtx_timeout)
        else:
            self._rtx_event = self.sim.restart(event, self.rtt.rto)

    def _cancel_rtx_timer(self) -> None:
        if self._rtx_event is not None:
            self._rtx_event.cancel()
            self._rtx_event = None

    def _on_rtx_timeout(self) -> None:
        self._rtx_event = None
        if self.flight <= 0:
            return
        self.stats.timeouts += 1
        self.rtt.backoff()
        self.ssthresh = max(self.flight / 2.0, self.config.min_cwnd)
        self.cwnd = INITIAL_CWND
        self.dupacks = 0
        self.in_recovery = False
        self._sacked = _NO_SEQS  # conservative: forget SACK state on RTO
        self._recovery_retx = _NO_SEQS
        self.t_seqno = self.highest_ack + 1  # go-back-N from the hole
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_state(self.sim.now, self.flow_id, "timeout")
            tel.on_rto(self.sim.now, self.flow_id, self.rtt.rto, self.cwnd)
            tel.on_cwnd(self.sim.now, self.flow_id, self.cwnd, self.ssthresh)
        self._after_timeout()
        self._set_rtx_timer()
        self._try_send()

    # ------------------------------------------------------------------
    # Message accounting
    # ------------------------------------------------------------------
    def _complete_messages(self) -> None:
        while self._pending_messages and (
            self.highest_ack >= self._pending_messages[0].end_seq - 1
        ):
            message = self._pending_messages.pop(0)
            message.finish_time = self.sim.now
            on_complete = message.on_complete
            if on_complete is not None:
                message.on_complete = None
                on_complete(message)

    # ------------------------------------------------------------------
    # Hooks for protocol variants
    # ------------------------------------------------------------------
    def _before_send_new(self) -> bool:
        """Called before transmitting a never-sent segment.

        Return False to abort the send loop (TCP-TRIM uses this to
        switch into probe mode).  The base protocol always proceeds.
        """
        return True

    def _on_segment_sent(self, seq: int, is_retx: bool, probe: bool) -> None:
        """Called after every (re)transmission is stamped and counted.

        T-RACKs records per-segment send times here so loss detection
        can compare transmit times instead of counting duplicate ACKs.
        """

    def _on_rtt_sample(self, rtt: float, pkt: Packet) -> None:
        """Called for each valid RTT sample (after the RTO estimator)."""

    def _on_ack_pre_increase(self, newly_acked: int, pkt: Packet) -> bool:
        """Called on each new ACK outside recovery, before the window
        increase.  Return True to suppress the increase (used by DCTCP's
        marked-window cut and TCP-TRIM's delay-based back-off)."""
        return False

    def _increase_window(self, newly_acked: int, pkt: Packet) -> None:
        """Reno ACK-counted growth: slow start then 1/cwnd per ACK."""
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd

    def _after_timeout(self) -> None:
        """Called after RTO state reset, before retransmission."""

    def _clamp_cwnd(self) -> None:
        self.cwnd = min(max(self.cwnd, self.config.min_cwnd), self.config.max_cwnd)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name}, cwnd={self.cwnd:.1f}, "
            f"seq={self.t_seqno}, ack={self.highest_ack})"
        )


class TcpSink:
    """Receiver: acknowledges every data packet at once (NS2's default,
    and what the paper's RTT-measurement algorithms assume) with a
    cumulative ACK that echoes the packet's timestamp, retransmission
    and probe flags and CE mark, plus SACK blocks for out-of-order data
    it holds."""

    __slots__ = (
        "sim", "host", "flow_id", "name", "next_expected", "_out_of_order",
        "delivered_segments", "duplicate_segments", "acks_sent",
    )

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        *,
        flow_id: int,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.name = name or f"sink-{flow_id}"
        host.attach_agent(flow_id, self)
        self.next_expected: int = 0
        self._out_of_order: AbstractSet[int] = _NO_SEQS
        self.delivered_segments: int = 0  # unique, in-order-or-buffered
        self.duplicate_segments: int = 0
        self.acks_sent: int = 0

    def receive_packet(self, pkt: Packet) -> None:
        if pkt.kind != DATA:
            raise RuntimeError(f"{self.name}: sink received non-data packet")
        if pkt.seq == self.next_expected:
            self.next_expected += 1
            self.delivered_segments += 1
            if self.next_expected in self._out_of_order:
                buffered = _writable(self._out_of_order)  # non-empty: own set
                while self.next_expected in buffered:
                    buffered.remove(self.next_expected)
                    self.next_expected += 1
                if not buffered:
                    self._out_of_order = _NO_SEQS
        elif pkt.seq > self.next_expected:
            if pkt.seq in self._out_of_order:
                self.duplicate_segments += 1
            else:
                self._out_of_order = buffered = _writable(self._out_of_order)
                buffered.add(pkt.seq)
                self.delivered_segments += 1
        else:
            self.duplicate_segments += 1
        ack = make_ack(pkt, self.next_expected - 1, self.sim.now, self._sack_blocks())
        self.acks_sent += 1
        self.host.send(ack)

    def _sack_blocks(self, max_blocks: int = 3) -> tuple[tuple[int, int], ...]:
        """Contiguous ``(start, end_exclusive)`` runs of buffered data
        above the cumulative ACK — the SACK option (highest runs first,
        at most ``max_blocks``)."""
        if not self._out_of_order:
            return ()
        ordered = sorted(self._out_of_order)
        runs: list[tuple[int, int]] = []
        run_start = prev = ordered[0]
        for seq in ordered[1:]:
            if seq == prev + 1:
                prev = seq
                continue
            runs.append((run_start, prev + 1))
            run_start = prev = seq
        runs.append((run_start, prev + 1))
        return tuple(runs[-max_blocks:][::-1])

    @property
    def delivered_bytes(self) -> int:
        return self.delivered_segments * MSS_BYTES
