"""Completion-time statistics: the paper's headline metrics.

The evaluation reports average completion time (ACT) of packet trains,
min/max completion times, average response completion time (ARCT),
completion-time CDFs, and Jain's fairness index for throughput shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.tcp.base import Message

__all__ = [
    "CompletionSummary",
    "act",
    "cdf_points",
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
    # len(), not truthiness: a numpy array raises "truth value is
    # ambiguous" under ``not arr`` for any length > 1.
    if len(times) == 0:
        raise ValueError("no completed messages to average")
    return float(np.mean(times))


def percentile(times: Sequence[float], q: float) -> float:
    """The q-th percentile (0–100) of completion times."""
    if len(times) == 0:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    return float(np.percentile(times, q))


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
    arr = np.asarray(times, dtype=float)
    return CompletionSummary(
        count=len(arr),
        mean=float(arr.mean()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        p50=float(np.percentile(arr, 50)),
        p99=float(np.percentile(arr, 99)),
    )


def cdf_points(samples: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF as ``(sorted values, cumulative probabilities)``."""
    if not len(samples):
        raise ValueError("no samples")
    values = np.sort(np.asarray(samples, dtype=float))
    probs = np.arange(1, len(values) + 1) / len(values)
    return values, probs


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n·Σx²)``; 1.0 is perfectly fair."""
    if len(shares) == 0:
        raise ValueError("no shares")
    arr = np.asarray(shares, dtype=float)
    if np.any(arr < 0):
        raise ValueError("shares must be non-negative")
    denom = len(arr) * float(np.sum(arr**2))
    if denom == 0:
        return 1.0  # all-zero shares: degenerate but equal
    return float(np.sum(arr)) ** 2 / denom
