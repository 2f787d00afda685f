"""RTT estimation and retransmission timeout computation.

Implements the classic Jacobson/Karels estimator with exponential
timer backoff.  Karn's rule (no samples from retransmitted segments) is
enforced by the caller, which knows whether the echoed segment was a
retransmission.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["EwmaRtt", "RttEstimator"]

#: RFC 6298's gains for the smoothed RTT and its variance, and the
#: variance multiplier ``K`` in ``RTO = srtt + K·rttvar``
SRTT_GAIN = 1.0 / 8.0
RTTVAR_GAIN = 1.0 / 4.0
RTTVAR_K = 4.0


class EwmaRtt:
    """The paper's smoothed RTT: ``s ← (1 − α)·s + α·sample`` (α = 0.25).

    Used by TCP-TRIM (and the GIP-style baseline) as the inter-train gap
    threshold and the probe deadline; distinct from the RTO estimator.
    """

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        if sample < 0:
            raise ValueError(f"negative RTT sample {sample!r}")
        if self.value is None:
            self.value = sample
        else:
            self.value = (1 - self.alpha) * self.value + self.alpha * sample
        return self.value


class RttEstimator:
    """Smoothed RTT, RTT variance, and the derived RTO.

    The gains and ``K`` are RFC 6298's constants above.  Data
    center deployments shrink ``min_rto`` aggressively (the paper uses
    200 ms, 20 ms, and 1 ms in different experiments), so it is a
    constructor argument.
    """

    __slots__ = (
        "min_rto",
        "max_rto",
        "srtt",
        "rttvar",
        "latest_sample",
        "backoff_factor",
        "_base_rto",
    )

    def __init__(
        self,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        initial_rto: float = 1.0,
    ) -> None:
        if min_rto <= 0 or max_rto < min_rto:
            raise ValueError("require 0 < min_rto <= max_rto")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.latest_sample: Optional[float] = None
        self.backoff_factor: float = 1.0
        self._base_rto = max(initial_rto, min_rto)

    def sample(self, rtt: float) -> None:
        """Incorporate a valid (non-retransmitted-segment) RTT sample."""
        if rtt < 0:
            raise ValueError(f"negative RTT sample {rtt!r}")
        self.latest_sample = rtt
        srtt = self.srtt
        if srtt is None:
            srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (
                (1 - RTTVAR_GAIN) * self.rttvar + RTTVAR_GAIN * abs(srtt - rtt)
            )
            srtt = (1 - SRTT_GAIN) * srtt + SRTT_GAIN * rtt
        self.srtt = srtt
        # Karn/RFC 6298 order: a valid sample first retires the
        # exponential backoff, *then* the RTO is recomputed from the
        # fresh estimate — so the very next timer arms un-backed-off.
        self.backoff_factor = 1.0
        self._base_rto = srtt + RTTVAR_K * self.rttvar

    def backoff(self) -> None:
        """Double the timeout after an expiry (capped at ``max_rto``)."""
        self.backoff_factor = min(self.backoff_factor * 2.0, 64.0)

    @property
    def rto(self) -> float:
        """Current retransmission timeout in seconds."""
        rto = max(self._base_rto, self.min_rto) * self.backoff_factor
        return min(rto, self.max_rto)
