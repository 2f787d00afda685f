"""Synthetic ON/OFF HTTP workloads — the substitute for the paper's
2 TB campus trace.

The paper uses its trace only through the Fig. 2 CDFs:

* **PT size** (Fig. 2a): ranges 0.5 KB – 256 KB; ≲20% of trains are
  tiny (≤ 4 KB); about 70% fall in 4 – 128 KB; 10% exceed 128 KB.
* **Inter-train gap** (Fig. 2b): hundreds of microseconds to several
  milliseconds.

We encode those published anchor points as piecewise log-linear inverse
CDFs and sample from them.  Anything between anchors is interpolated on
a log scale (sizes and gaps both span orders of magnitude); this keeps
the workload inside the published envelope without inventing extra
structure the paper does not report.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from repro.net.packet import MSS_BYTES
from repro.sim.randomness import Pcg64Generator

__all__ = [
    "GAP_CDF_ANCHORS",
    "PT_SIZE_CDF_ANCHORS",
    "PiecewiseLogCdf",
    "OnOffEvent",
    "gap_sampler",
    "generate_onoff_schedule",
    "pt_size_sampler",
    "response_schedule",
]

PT_SIZE_CDF_ANCHORS: tuple[tuple[float, float], ...] = (
    (512.0, 0.0),        # 0.5 KB — smallest observed train
    (4096.0, 0.20),      # ≤ 4 KB: "lower than 20%"
    (131072.0, 0.90),    # 4–128 KB: "about 70%"
    (262144.0, 1.0),     # 256 KB — largest observed train
)
"""Fig. 2(a) anchor points: (train size in bytes, cumulative prob.)."""

GAP_CDF_ANCHORS: tuple[tuple[float, float], ...] = (
    (2e-4, 0.0),   # "hundreds of microseconds" ...
    (1e-3, 0.60),  # most gaps within a millisecond (Fig. 2b's knee)
    (5e-3, 1.0),   # ... "to several milliseconds"
)
"""Fig. 2(b) anchor points: (inter-train gap in seconds, cum. prob.).
The 60% knee at 1 ms is read off the published curve; the endpoints are
stated in the text."""


class PiecewiseLogCdf:
    """Inverse-CDF sampler with log-linear interpolation between anchors.

    ``anchors`` is a sequence of ``(value, cumulative_probability)``
    pairs with strictly increasing values and probabilities running from
    0.0 to 1.0.
    """

    def __init__(self, anchors: Sequence[tuple[float, float]]) -> None:
        if len(anchors) < 2:
            raise ValueError("need at least two anchors")
        values = [v for v, _ in anchors]
        probs = [p for _, p in anchors]
        if any(v <= 0 for v in values):
            raise ValueError("anchor values must be positive (log scale)")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("anchor values must be strictly increasing")
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError("anchor probabilities must span [0, 1]")
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError("anchor probabilities must be non-decreasing")
        self._log_values = [math.log(v) for v in values]
        self._probs = [float(p) for p in probs]

    def sample(self, rng: Pcg64Generator, n: int) -> list[float]:
        """Draw ``n`` values."""
        return self.quantile(rng.random(n))

    def quantile(self, u: Sequence[float]) -> list[float]:
        """The inverse CDF at probabilities ``u`` (each in [0, 1])."""
        if not all(0 <= p <= 1 for p in u):
            raise ValueError("probabilities must lie in [0, 1]")
        return [math.exp(_interp(p, self._probs, self._log_values)) for p in u]

    def cdf(self, values: Sequence[float]) -> list[float]:
        """The CDF at ``values`` (piecewise log-linear)."""
        if not all(v > 0 for v in values):
            raise ValueError("values must be positive")
        return [_interp(math.log(v), self._log_values, self._probs) for v in values]


def _interp(x: float, xs: list[float], ys: list[float]) -> float:
    """numpy's ``interp`` at one point of the non-decreasing ``xs``:
    clamped to the end values outside, and on a tie the right-most
    knot at or below ``x`` wins."""
    if x < xs[0]:
        return ys[0]
    j = bisect_right(xs, x) - 1
    if j == len(xs) - 1 or xs[j] == x:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return slope * (x - xs[j]) + ys[j]


def pt_size_sampler() -> PiecewiseLogCdf:
    """Sampler for packet-train sizes per Fig. 2(a)."""
    return PiecewiseLogCdf(PT_SIZE_CDF_ANCHORS)


def gap_sampler() -> PiecewiseLogCdf:
    """Sampler for inter-train gaps per Fig. 2(b)."""
    return PiecewiseLogCdf(GAP_CDF_ANCHORS)


@dataclass(frozen=True)
class OnOffEvent:
    """One packet train to be sent: at ``time``, ``size_bytes`` of data."""

    time: float
    size_bytes: int


def generate_onoff_schedule(
    rng: Pcg64Generator,
    duration: float,
    start_time: float = 0.0,
    drain_rate_bps: float | None = 1e9,
) -> list[OnOffEvent]:
    """An ON/OFF schedule for one persistent connection.

    Each train's size comes from the Fig. 2(a) distribution; the OFF
    gap after a train comes from Fig. 2(b) and is measured from the end
    of the train, whose ON duration is approximated as its size drained
    at ``drain_rate_bps`` (pass None to stack gaps from train *starts*,
    which can overlap large trains).  Generation stops once the next
    train would start after ``start_time + duration``.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    size_cdf = pt_size_sampler()
    gap_cdf = gap_sampler()
    events: list[OnOffEvent] = []
    t = start_time + gap_cdf.sample(rng, 1)[0]
    end = start_time + duration
    while t < end:
        size = max(1, int(size_cdf.sample(rng, 1)[0]))
        events.append(OnOffEvent(time=t, size_bytes=size))
        if drain_rate_bps is not None:
            t += size * 8.0 / drain_rate_bps  # ON period
        t += gap_cdf.sample(rng, 1)[0]  # OFF period
    return events


def response_schedule(
    rng: Pcg64Generator,
    n_responses: int,
    start_time: float,
    mean_interval: float,
    size_range_bytes: tuple[int, int],
) -> list[OnOffEvent]:
    """The motivation scenario's response stream (Section II.B.1).

    ``n_responses`` responses with sizes uniform in ``size_range_bytes``
    and exponential inter-response intervals of mean ``mean_interval`` —
    the paper says "randomly generated based on 1 ms mean".
    """
    if n_responses < 1:
        raise ValueError("need at least one response")
    if mean_interval <= 0:
        raise ValueError("mean interval must be positive")
    lo, hi = size_range_bytes
    if not 0 < lo <= hi:
        raise ValueError("invalid size range")
    intervals = rng.exponential(mean_interval, n_responses)
    events = []
    t = start_time
    for i in range(n_responses):
        size = rng.integers(lo, hi + 1)
        events.append(OnOffEvent(time=t, size_bytes=size))
        t += intervals[i]
    return events


def segments_for_bytes(size_bytes: int) -> int:
    """MSS-sized segments needed to carry ``size_bytes`` of response data."""
    if size_bytes < 1:
        raise ValueError("size must be at least one byte")
    return max(1, math.ceil(size_bytes / MSS_BYTES))
