"""TCP CUBIC — the Linux default the paper's testbed compares against.

Implements the window-growth function of RFC 8312: after a loss the
window is cut to ``beta × cwnd`` and subsequently follows
``W(t) = C·(t − K)³ + W_max`` where ``K = ∛(W_max·(1 − beta)/C)``, with
fast convergence.  Slow start below ``ssthresh`` is unchanged.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.packet import Packet
from repro.tcp.base import MIN_CWND, TcpSource

__all__ = ["CubicSource"]


class CubicSource(TcpSource):
    """CUBIC sender."""

    protocol_name = "cubic"

    CUBIC_C = 0.4
    BETA = 0.7
    FAST_CONVERGENCE = True

    __slots__ = ("w_max", "_epoch_start", "_origin", "_k")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.w_max: float = 0.0
        self._epoch_start: Optional[float] = None
        self._origin: float = 0.0
        self._k: float = 0.0

    # ------------------------------------------------------------------
    def _halve_window_on_loss(self) -> float:
        """CUBIC multiplicative decrease with fast convergence."""
        if self.FAST_CONVERGENCE and self.cwnd < self.w_max:
            self.w_max = self.cwnd * (2.0 - self.BETA) / 2.0
        else:
            self.w_max = self.cwnd
        self._epoch_start = None
        return max(self.cwnd * self.BETA, MIN_CWND)

    def _after_timeout(self) -> None:
        self.w_max = max(self.w_max, self.cwnd)
        self._epoch_start = None

    def _increase_window(self, newly_acked: int, pkt: Packet) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
            return
        now = self.sim.now
        if self._epoch_start is None:
            self._epoch_start = now
            if self.cwnd < self.w_max:
                self._origin = self.w_max
                self._k = ((self.w_max - self.cwnd) / self.CUBIC_C) ** (1.0 / 3.0)
            else:
                self._origin = self.cwnd
                self._k = 0.0
        # Target one smoothed RTT ahead, per the RFC's pacing guidance.
        t = now - self._epoch_start + (self.rtt.srtt or 0.0)
        target = self._origin + self.CUBIC_C * (t - self._k) ** 3
        if target > self.cwnd:
            self.cwnd += (target - self.cwnd) / self.cwnd
        else:
            self.cwnd += 0.01 / self.cwnd  # minimum probing growth
