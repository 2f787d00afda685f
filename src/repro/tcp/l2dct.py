"""L2DCT (INFOCOM 2013) — DCTCP plus Least-Attained-Service weighting.

L2DCT keeps DCTCP's ECN machinery but scales congestion-window growth by
a per-flow weight ``w_c`` that decays as the flow transmits more data,
approximating LAS scheduling: short flows ramp quickly, long flows yield.

We model the weight exactly as the L2DCT paper's control law describes
qualitatively: ``w_c`` starts at ``W_MAX`` (2.5) and decreases to
``W_MIN`` (0.125) as the flow's sent bytes approach a large-flow
threshold; congestion avoidance adds ``w_c`` per RTT (i.e. ``w_c/cwnd``
per ACK) and slow start adds ``w_c`` per ACK.  The marked-window
decrease additionally steepens for heavier flows via the same weight,
as in the paper's ``b``-scaled back-off.  This is a documented
approximation (see DESIGN.md): we did not port their exact piecewise
weight table, but the behaviour — short transfers finish faster and
long flows back off harder — matches.
"""

from __future__ import annotations

from repro.net.packet import MSS_BYTES, Packet
from repro.tcp.base import MIN_CWND
from repro.tcp.dctcp import DctcpSource

__all__ = ["L2dctSource"]


class L2dctSource(DctcpSource):
    """L2DCT sender."""

    protocol_name = "l2dct"

    W_MAX = 2.5
    W_MIN = 0.125
    #: bytes after which a flow is treated as "large" (weight floor);
    #: the L2DCT evaluation centres on flows up to ~1 MB.
    LARGE_FLOW_BYTES = 1_000_000

    __slots__ = ()

    def _weight(self) -> float:
        sent_bytes = (self.highest_ack + 1) * MSS_BYTES
        progress = min(1.0, max(0.0, sent_bytes / self.LARGE_FLOW_BYTES))
        return self.W_MAX - (self.W_MAX - self.W_MIN) * progress

    def _increase_window(self, newly_acked: int, pkt: Packet) -> None:
        w_c = self._weight()
        if self.cwnd < self.ssthresh:
            self.cwnd += min(w_c, 1.0)  # slow start never exceeds Reno's rate
        else:
            self.cwnd += w_c / self.cwnd

    def _on_ack_pre_increase(self, newly_acked: int, pkt: Packet) -> bool:
        """DCTCP window accounting with weight-steepened back-off."""
        self._acked_in_window += newly_acked
        if pkt.ece:
            self._marked_in_window += newly_acked
        if pkt.ack < self._window_end:
            return False
        fraction = (
            self._marked_in_window / self._acked_in_window
            if self._acked_in_window
            else 0.0
        )
        self.alpha = (1.0 - self.G) * self.alpha + self.G * fraction
        cut = self._marked_in_window > 0
        if cut:
            # Heavier flows (small w_c) back off closer to alpha/2 · K,
            # lighter flows more gently; bounded by DCTCP's cut.
            k = 0.5 + 0.5 * (1.0 - self._weight() / self.W_MAX)
            factor = 1.0 - min(0.5, (self.alpha / 2.0) * (2.0 * k))
            self.cwnd = max(MIN_CWND, self.cwnd * factor)
            self.ssthresh = self.cwnd  # the cut ends slow start, as in DCTCP
        self._window_end = self.t_seqno
        self._acked_in_window = 0
        self._marked_in_window = 0
        return cut
