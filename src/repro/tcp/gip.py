"""GIP-style conservative restart — the related-work baseline [13].

Zhang et al. (ICNP 2013) restart each transfer unit with congestion
window 2 to minimize incast loss.  The paper argues this underutilizes
the bottleneck when capacity is plentiful; TCP-TRIM's probe mechanism is
its answer.  We implement the restart using the same inter-train gap
detector TCP-TRIM uses (elapsed send gap > smoothed RTT), but the action
is simply ``cwnd ← 2`` with no probing — making this the natural
ablation baseline for the probe mechanism.
"""

from __future__ import annotations

from typing import Any

from repro.net.packet import Packet
from repro.tcp.base import MIN_CWND, TcpSource
from repro.tcp.rtt import EwmaRtt

__all__ = ["GipSource"]


class GipSource(TcpSource):
    """Restart-at-2 sender."""

    protocol_name = "gip"

    SMOOTH_ALPHA = 0.25

    __slots__ = ("smooth_rtt",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.smooth_rtt = EwmaRtt(self.SMOOTH_ALPHA)

    def _on_rtt_sample(self, rtt: float, pkt: Packet) -> None:
        self.smooth_rtt.update(rtt)

    def _before_send_new(self) -> bool:
        gap_threshold = self.smooth_rtt.value
        if gap_threshold is None or self.last_send_time is None:
            return True
        if self.sim.now - self.last_send_time > gap_threshold:
            self.cwnd = MIN_CWND
            self.ssthresh = max(self.ssthresh, self.config.initial_ssthresh)
        return True
