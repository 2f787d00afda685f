"""Tiny Buffer TCP (arXiv 1909.05392) — paced, low-occupancy control.

The tiny-buffer line of work observes that shallow-buffered commodity
switches (a few packets per port) collapse under loss-based TCP because
slow start and ACK-clocked bursts overshoot the buffer by an entire
bandwidth-delay product.  The remedy is to (a) pace every transmission
so the wire sees at most one packet per ``srtt/cwnd`` interval, and
(b) bound the window near the path's BDP estimated from the delivery
rate, leaving only a few segments of headroom for the switch to absorb.

This transliteration keeps the estimator deliberately simple and fully
deterministic:

* ``min_rtt`` is the running minimum of Karn-valid RTT samples;
* the delivery rate is an EWMA of ``newly_acked / inter_ack_gap``
  (segments per second measured at the ACK clock);
* the target window is ``rate × min_rtt + headroom`` segments, never
  below the configured floor.

Growth is standard slow start / congestion avoidance *clamped to the
target*: once the window reaches the BDP estimate it holds there
instead of inflating (no congestion-window validation pathology — a
tiny-buffer sender never inherits a 900-segment window into the next
ON period).  A loss event returns the window to the BDP target rather
than blindly halving below it: with a paced, low-occupancy window the
loss was the buffer's fault, not the pipe's.

``tcp/factory.py`` turns pacing on by default for this protocol; the
class also forces it in the constructor so a directly-built source is
paced too.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.packet import Packet
from repro.tcp.base import TcpSource
from repro.tcp.rtt import EwmaRtt

__all__ = ["TinyBufferSource"]


class TinyBufferSource(TcpSource):
    """Paced, BDP-bounded sender for tiny switch buffers."""

    protocol_name = "tinybuffer"

    #: segments of slack above the measured BDP: enough to keep the
    #: pipe full across ACK jitter, small enough to fit a tiny buffer.
    HEADROOM_SEGMENTS = 2.0
    #: EWMA gain of the delivery-rate estimator.
    RATE_ALPHA = 0.25

    __slots__ = ("min_rtt", "_rate", "_last_ack_time")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if not self.config.pacing:
            # Pacing is the mechanism, not an option, for this protocol.
            self.config.pacing = True
        self.min_rtt: float = float("inf")
        #: delivery rate in segments per second, EWMA over ACK arrivals.
        self._rate = EwmaRtt(self.RATE_ALPHA)
        self._last_ack_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------
    def target_cwnd(self) -> Optional[float]:
        """The BDP-plus-headroom window, or None before any estimate."""
        if self._rate.value is None or self.min_rtt == float("inf"):
            return None
        bdp = self._rate.value * self.min_rtt
        return max(self.config.min_cwnd, bdp + self.HEADROOM_SEGMENTS)

    def _on_rtt_sample(self, rtt: float, pkt: Packet) -> None:
        if rtt > 0:
            self.min_rtt = min(self.min_rtt, rtt)

    def _on_ack_pre_increase(self, newly_acked: int, pkt: Packet) -> bool:
        now = self.sim.now
        last = self._last_ack_time
        self._last_ack_time = now
        if last is not None and now > last:
            self._rate.update(newly_acked / (now - last))
        if pkt.ece:
            # Switch-assisted fair-share feedback (FairQueue CE-marks
            # over-share flows): shed one segment and skip the increase
            # — a gentle per-ACK decrease, not a multiplicative cut.
            self.cwnd = max(self.config.min_cwnd, self.cwnd - 1.0)
            return True
        return False

    # ------------------------------------------------------------------
    # Window policy
    # ------------------------------------------------------------------
    def _increase_window(self, newly_acked: int, pkt: Packet) -> None:
        target = self.target_cwnd()
        if target is None:
            # No estimate yet: the first flight behaves like slow start.
            super()._increase_window(newly_acked, pkt)
            return
        if self.cwnd >= target:
            # Hold at the BDP: the clamp doubles as the slow-start exit.
            self.ssthresh = min(self.ssthresh, max(target, self.config.min_cwnd))
            self.cwnd = target
            return
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + 1.0, target)
        else:
            self.cwnd = min(self.cwnd + 1.0 / self.cwnd, target)

    def _halve_window_on_loss(self) -> float:
        half = self.flight / 2.0
        target = self.target_cwnd()
        if target is not None:
            # A paced low-occupancy window that still lost a packet was
            # above what the buffer absorbs; return to the BDP estimate
            # instead of halving below it.
            half = min(half, target)
        return max(half, self.config.min_cwnd)
