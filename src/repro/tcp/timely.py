"""TIMELY (SIGCOMM 2015) — related work [22], RTT-gradient control.

TIMELY adjusts the sending rate from the *gradient* of the RTT rather
than its absolute value: a rising RTT means the queue is building, a
falling RTT means it is draining — reacting before any threshold is
crossed.  The original is rate-based on NIC timestamps; this is the
standard window-based transliteration (window plays rate × RTT):

* RTT below ``t_low``: additive increase (the queue is empty enough);
* RTT above ``t_high``: multiplicative decrease proportional to the
  overshoot (``1 − BETA·(1 − t_high/RTT)``);
* otherwise: the gradient engine — normalized gradient ≤ 0 grows the
  window additively (with HAI after ``HAI_THRESH`` consecutive negative
  gradients), positive gradient decays it by ``1 − BETA·gradient``.

Like Vegas, TIMELY is included as a delay-based ablation: it has no
inter-train probe, so window inheritance across HTTP OFF periods is as
blind as Reno's.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.packet import Packet
from repro.tcp.base import TcpSource
from repro.tcp.rtt import EwmaRtt

__all__ = ["TimelySource"]


class TimelySource(TcpSource):
    """Window-based TIMELY sender."""

    protocol_name = "timely"

    BETA = 0.8
    ADD_STEP = 1.0  # segments per RTT
    EWMA_ALPHA = 0.3  # gradient smoothing
    HAI_THRESH = 5  # consecutive negative gradients before HAI
    HAI_STEP = 5.0
    #: t_low/t_high default to these multiples of the observed min RTT
    T_LOW_FACTOR = 1.1
    T_HIGH_FACTOR = 2.5

    __slots__ = (
        "_t_low_cfg", "_t_high_cfg", "min_rtt", "_prev_rtt", "_gradient",
        "_neg_gradient_streak", "_epoch_end", "_epoch_last_rtt",
    )

    def __init__(
        self,
        *args: Any,
        t_low: Optional[float] = None,
        t_high: Optional[float] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if t_low is not None and t_high is not None and t_low >= t_high:
            raise ValueError("t_low must be below t_high")
        self._t_low_cfg = t_low
        self._t_high_cfg = t_high
        self.min_rtt: float = float("inf")
        self._prev_rtt: Optional[float] = None
        self._gradient = EwmaRtt(self.EWMA_ALPHA)
        self._neg_gradient_streak = 0
        self._epoch_end = 0
        self._epoch_last_rtt: Optional[float] = None

    @property
    def t_low(self) -> float:
        if self._t_low_cfg is not None:
            return self._t_low_cfg
        return self.T_LOW_FACTOR * self.min_rtt

    @property
    def t_high(self) -> float:
        if self._t_high_cfg is not None:
            return self._t_high_cfg
        return self.T_HIGH_FACTOR * self.min_rtt

    # ------------------------------------------------------------------
    def _on_rtt_sample(self, rtt: float, pkt: Packet) -> None:
        self.min_rtt = min(self.min_rtt, rtt)
        if self._prev_rtt is not None:
            # EwmaRtt requires non-negative samples; shift the delta by
            # min_rtt so it carries sign information around that origin.
            self._gradient.update(max(0.0, rtt - self._prev_rtt + self.min_rtt))
        self._prev_rtt = rtt
        self._epoch_last_rtt = rtt

    def normalized_gradient(self) -> float:
        if self._gradient.value is None or self.min_rtt == float("inf"):
            return 0.0
        return (self._gradient.value - self.min_rtt) / self.min_rtt

    def _increase_window(self, newly_acked: int, pkt: Packet) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start until the first delay signal
            return
        if pkt.ack < self._epoch_end or self._epoch_last_rtt is None:
            return
        self._apply_gradient_update(self._epoch_last_rtt)
        self._epoch_end = self.t_seqno

    def _apply_gradient_update(self, rtt: float) -> None:
        if rtt < self.t_low:
            self.cwnd += self.ADD_STEP
            self._neg_gradient_streak = 0
            return
        if rtt > self.t_high:
            self.cwnd = max(
                self.config.min_cwnd,
                self.cwnd * (1.0 - self.BETA * (1.0 - self.t_high / rtt)),
            )
            self._neg_gradient_streak = 0
            return
        gradient = self.normalized_gradient()
        if gradient <= 0:
            self._neg_gradient_streak += 1
            step = (
                self.HAI_STEP
                if self._neg_gradient_streak >= self.HAI_THRESH
                else self.ADD_STEP
            )
            self.cwnd += step
        else:
            self._neg_gradient_streak = 0
            self.cwnd = max(
                self.config.min_cwnd,
                self.cwnd * (1.0 - self.BETA * min(1.0, gradient)),
            )

    def _on_ack_pre_increase(self, newly_acked: int, pkt: Packet) -> bool:
        """Leaving slow start on the first above-t_low RTT: the delay
        signal is TIMELY's congestion indicator."""
        if (
            self.cwnd < self.ssthresh
            and self._epoch_last_rtt is not None
            and self.min_rtt != float("inf")
            and self._epoch_last_rtt > self.t_low
        ):
            self.ssthresh = max(self.cwnd, self.config.min_cwnd)
        return False

    def _after_timeout(self) -> None:
        self._epoch_end = self.t_seqno
        self._neg_gradient_streak = 0
