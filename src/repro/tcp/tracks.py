"""T-RACKs (arXiv 2102.07477) — time-based loss detection and recovery.

Datacenter incast makes duplicate-ACK counting a poor loss detector:
short flows rarely have three segments in flight behind a hole, so tail
losses sit out a full (minimum) RTO.  T-RACKs — like Linux's RACK-TLP —
replaces the *count* signal with a *time* signal:

* every (re)transmission records its send time (via the
  :meth:`~repro.tcp.base.TcpSource._on_segment_sent` hook);
* every ACK advances a "most recently sent delivered segment" watermark
  from the echoed send timestamp (``pkt.ts_echo`` — Karn-free, because
  the echo carries the timestamp of the copy that actually arrived);
* a hole whose last transmission predates the watermark by more than a
  reorder window (``min_rtt / 4``) is declared lost and retransmitted
  immediately — no duplicate-ACK threshold involved;
* a per-flow tail timer a small multiple of srtt — far below the
  200 ms minimum RTO — catches losses that generate no further ACKs at
  all (the whole tail of a window).

The factory disables duplicate-ACK fast retransmit outright for this
protocol (``dupack_threshold`` is set beyond any window) so recovery is
entered exclusively through time-based detection; the standard RTO
remains the backstop of last resort.  Window reduction reuses the base
fast-recovery machinery: one halving per recovery episode, NewReno
partial-ACK repair for multi-loss windows.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.packet import ACK, Packet
from repro.sim.kernel import Event
from repro.tcp.base import _NO_SEQS, MIN_CWND, TcpSource

__all__ = ["TracksSource"]


class TracksSource(TcpSource):
    """Sender with RACK-style time-based loss detection."""

    protocol_name = "tracks"

    #: reorder window as a fraction of min RTT (RACK's default quarter).
    REO_WND_FRACTION = 0.25
    #: tail timer: fire this many smoothed RTTs after the last ACK.
    TAIL_TIMER_FACTOR = 2.0
    #: floor of the tail timer, guarding against spurious retransmits
    #: when srtt collapses to microseconds on an idle path.
    TAIL_TIMER_FLOOR = 1e-3

    __slots__ = (
        "_send_time", "_rack_time", "min_rtt", "_tail_event", "_acks_at_arm",
        "time_detected_losses",
    )

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: latest send time of every not-yet-cumulatively-ACKed segment.
        self._send_time: dict[int, float] = {}
        #: send time of the most recently transmitted delivered segment.
        self._rack_time: float = float("-inf")
        self.min_rtt: float = float("inf")
        self._tail_event: Optional[Event] = None
        self._acks_at_arm = 0
        #: lifetime count of time-detected losses (telemetry/tests).
        self.time_detected_losses = 0

    # ------------------------------------------------------------------
    # Bookkeeping hooks
    # ------------------------------------------------------------------
    def _on_segment_sent(self, seq: int, is_retx: bool, probe: bool) -> None:
        self._send_time[seq] = self.sim.now
        if self._tail_event is None and self.flight > 0:
            self._arm_tail_timer()

    def _on_rtt_sample(self, rtt: float, pkt: Packet) -> None:
        if rtt > 0:
            self.min_rtt = min(self.min_rtt, rtt)

    def reo_wnd(self) -> float:
        """The reordering tolerance before a hole is declared lost."""
        if self.min_rtt == float("inf"):
            return self.TAIL_TIMER_FLOOR
        return self.min_rtt * self.REO_WND_FRACTION

    # ------------------------------------------------------------------
    # ACK path: advance the watermark, then detect expired holes
    # ------------------------------------------------------------------
    def receive_packet(self, pkt: Packet) -> None:
        if pkt.kind == ACK:
            # The echoed timestamp is the send time of the copy that
            # was delivered — exactly RACK's watermark, with Karn's
            # ambiguity resolved by construction.
            if pkt.ts_echo > self._rack_time:
                self._rack_time = pkt.ts_echo
            prev_ack = self.highest_ack
            super().receive_packet(pkt)
            for seq in range(prev_ack + 1, self.highest_ack + 1):
                self._send_time.pop(seq, None)
            self._detect_expired_holes()
            self._arm_tail_timer()
            return
        super().receive_packet(pkt)

    def _detect_expired_holes(self) -> None:
        """Retransmit the first hole whose last transmission predates
        the delivery watermark by more than the reorder window."""
        if self.flight <= 0:
            return
        hole = self.highest_ack + 1
        if hole >= self.t_seqno:
            return
        if self.config.sack and hole in self._sacked:
            return
        sent = self._send_time.get(hole)
        if sent is None:
            return
        if self._rack_time - sent >= self.reo_wnd():
            self._time_based_retransmit(hole)

    def _time_based_retransmit(self, seq: int) -> None:
        """Enter (or continue) recovery and resend ``seq`` now.

        One window reduction per episode: re-detections inside an open
        recovery resend without halving again, mirroring how the base
        machinery treats extra duplicate ACKs.
        """
        if not self.in_recovery:
            self.stats.fast_retransmits += 1
            self.in_recovery = True
            self.recover_seq = self.t_seqno - 1
            self._recovery_retx = _NO_SEQS
            self.ssthresh = self._halve_window_on_loss()
            self.cwnd = max(MIN_CWND, self.ssthresh)
            tel = self.sim.telemetry
            if tel is not None:
                tel.on_state(self.sim.now, self.flow_id, "recovery")
                tel.on_cwnd(self.sim.now, self.flow_id, self.cwnd, self.ssthresh)
        if seq in self._recovery_retx:
            return
        self.time_detected_losses += 1
        self._send_segment(seq)
        self._mark_resent(seq)
        self._set_rtx_timer()

    # ------------------------------------------------------------------
    # Tail timer: the T-RACKs per-flow timer, far below min RTO
    # ------------------------------------------------------------------
    def _tail_delay(self) -> float:
        srtt = self.rtt.srtt
        base = srtt if srtt is not None else self.config.initial_rto / 2.0
        return max(self.TAIL_TIMER_FLOOR, self.TAIL_TIMER_FACTOR * base)

    def _arm_tail_timer(self) -> None:
        if self.flight <= 0:
            self._cancel_tail_timer()
            return
        self._acks_at_arm = self.stats.acks_received
        delay = self._tail_delay()
        event = self._tail_event
        if event is None:
            self._tail_event = self.sim.schedule(delay, self._on_tail_timer)
        else:
            self._tail_event = self.sim.restart(event, delay)

    def _cancel_tail_timer(self) -> None:
        if self._tail_event is not None:
            self._tail_event.cancel()
            self._tail_event = None

    def _on_tail_timer(self) -> None:
        self._tail_event = None
        if self.flight <= 0:
            return
        if self.stats.acks_received != self._acks_at_arm:
            # ACKs arrived since arming; they re-armed detection already.
            self._arm_tail_timer()
            return
        # Silent tail: nothing has been delivered for a tail period, so
        # the head-of-line segment is presumed lost.  Retransmitting it
        # re-arms the timer through _on_segment_sent.
        self._time_based_retransmit(self.highest_ack + 1)

    def _after_timeout(self) -> None:
        # The RTO's go-back-N supersedes fine-grained tracking; sends
        # will re-arm the tail timer as they restamp their entries.
        self._cancel_tail_timer()
