"""Completion-time statistics: the paper's headline metrics.

The evaluation reports average completion time (ACT) of packet trains,
min/max completion times, average response completion time (ARCT),
completion-time CDFs, and Jain's fairness index for throughput shares.

The reducers are pure Python and give numpy's numbers to the last bit:
a mean is numpy's pairwise sum (``add.reduce`` over float64, from
zero) divided by the count, and a percentile is numpy's default
``linear`` method, interpolated the way its ``_lerp`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.tcp.base import Message

__all__ = [
    "CompletionSummary",
    "act",
    "completion_times",
    "jain_fairness",
    "percentile",
    "summarize",
]


def completion_times(messages: Iterable[Message]) -> list[float]:
    """Completion times of the *completed* messages, in seconds."""
    return [m.completion_time for m in messages if m.finish_time is not None]


def act(times: Sequence[float]) -> float:
    """Average completion time.  Raises on an empty sample."""
    if len(times) == 0:
        raise ValueError("no completed messages to average")
    return _mean(times)


def percentile(times: Sequence[float], q: float) -> float:
    """The q-th percentile (0–100) of completion times."""
    if len(times) == 0:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    return _quantile(sorted(map(float, times)), q / 100)


@dataclass(frozen=True)
class CompletionSummary:
    """Mean / extremes / tail of a completion-time sample."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p99: float


def summarize(times: Sequence[float]) -> CompletionSummary:
    """Summary statistics for a completion-time sample."""
    if len(times) == 0:
        raise ValueError("no samples to summarize")
    values = sorted(map(float, times))
    return CompletionSummary(
        count=len(values),
        mean=_mean(times),  # in sample order: a pairwise sum depends on it
        minimum=values[0],
        maximum=values[-1],
        p50=_quantile(values, 50 / 100),
        p99=_quantile(values, 99 / 100),
    )


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n·Σx²)``; 1.0 is perfectly fair."""
    if len(shares) == 0:
        raise ValueError("no shares")
    values = [float(share) for share in shares]
    if any(value < 0 for value in values):
        raise ValueError("shares must be non-negative")
    denom = len(values) * _sum([value * value for value in values])
    if denom == 0:
        return 1.0  # all-zero shares: degenerate but equal
    return _sum(values) ** 2 / denom


def _mean(values: Sequence[float]) -> float:
    """numpy's ``mean``: the pairwise sum over the count."""
    return _sum([float(value) for value in values]) / len(values)


def _sum(values: list[float]) -> float:
    """numpy's float64 ``add.reduce``: zero plus a pairwise sum."""
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: list[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` of ``values[lo:lo + n]``: runs under 8
    add in order; up to 128, eight strided running sums are combined
    as a tree and the remainder added in order; longer runs split in
    two at a multiple of 8."""
    if n < 8:
        return _running_sum(values[lo : lo + n])
    if n <= 128:
        whole = n - n % 8
        r = [_running_sum(values[lo + j : lo + whole : 8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return _running_sum(values[lo + whole : lo + n], total)
    half = n // 2
    half -= half % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def _running_sum(values: list[float], total: float = 0.0) -> float:
    # Not ``sum()``: from Python 3.12 it compensates float rounding.
    for value in values:
        total += value
    return total


def _quantile(ordered: list[float], quantile: float) -> float:
    """numpy's ``linear`` quantile of the sorted ``ordered``, ``0 <= quantile
    <= 1``: past the last index both neighbours are the last value."""
    virtual = (len(ordered) - 1) * quantile
    below = math.floor(virtual)
    above = below + 1
    if virtual >= len(ordered) - 1:
        below = above = -1
    a, b = ordered[below], ordered[above]
    t = virtual - below
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t
