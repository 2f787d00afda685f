"""TCP Vegas (Brakmo & Peterson, SIGCOMM 1994) — related work [21].

The original delay-based congestion controller: once per RTT the sender
compares the expected rate ``cwnd/BaseRTT`` with the actual rate
``cwnd/RTT`` and holds the difference (in packets buffered at the
bottleneck) between ``ALPHA`` and ``BETA`` by ±1 adjustments; slow
start doubles every *other* RTT and ends when the difference exceeds
``GAMMA``.

Vegas is included as an ablation baseline: it shares TCP-TRIM's
delay-based philosophy but has no inter-train probing, so it inherits
stale windows across HTTP OFF periods exactly like Reno — isolating the
probe mechanism's contribution.
"""

from __future__ import annotations

from typing import Any

from repro.net.packet import Packet
from repro.tcp.base import TcpSource

__all__ = ["VegasSource"]


class VegasSource(TcpSource):
    """TCP Vegas sender."""

    protocol_name = "vegas"

    ALPHA = 1.0  # packets queued: lower bound
    BETA = 3.0  # packets queued: upper bound
    GAMMA = 1.0  # slow-start exit threshold

    __slots__ = ("base_rtt", "_epoch_end", "_epoch_min_rtt", "_ss_grow_this_epoch")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.base_rtt: float = float("inf")
        self._epoch_end: int = 0
        self._epoch_min_rtt: float = float("inf")
        self._ss_grow_this_epoch = True

    # ------------------------------------------------------------------
    def _on_rtt_sample(self, rtt: float, pkt: Packet) -> None:
        self.base_rtt = min(self.base_rtt, rtt)
        self._epoch_min_rtt = min(self._epoch_min_rtt, rtt)

    def _increase_window(self, newly_acked: int, pkt: Packet) -> None:
        """All growth happens at epoch (once-per-RTT) boundaries."""
        if pkt.ack < self._epoch_end or self._epoch_min_rtt == float("inf"):
            return
        rtt = self._epoch_min_rtt
        diff_pkts = self.cwnd * (1.0 - self.base_rtt / rtt)
        if self.cwnd < self.ssthresh:
            if diff_pkts > self.GAMMA:
                # Queue build-up detected: leave slow start.
                self.ssthresh = max(self.config.min_cwnd, self.cwnd)
                self.cwnd = max(self.config.min_cwnd, self.cwnd - 1.0)
            elif self._ss_grow_this_epoch:
                self.cwnd *= 2.0  # double every other RTT
            self._ss_grow_this_epoch = not self._ss_grow_this_epoch
        else:
            if diff_pkts < self.ALPHA:
                self.cwnd += 1.0
            elif diff_pkts > self.BETA:
                self.cwnd = max(self.config.min_cwnd, self.cwnd - 1.0)
        self._epoch_end = self.t_seqno
        self._epoch_min_rtt = float("inf")

    def _after_timeout(self) -> None:
        self._epoch_end = self.t_seqno
        self._epoch_min_rtt = float("inf")

    @property
    def diff_packets(self) -> float:
        """Current Vegas backlog estimate (diagnostics)."""
        if self.base_rtt == float("inf") or self._epoch_min_rtt == float("inf"):
            return 0.0
        return self.cwnd * (1.0 - self.base_rtt / self._epoch_min_rtt)
