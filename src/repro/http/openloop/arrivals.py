"""Seeded user-arrival processes behind one spec grammar.

An arrival process turns a ``numpy`` generator and a horizon into a
sorted list of session start times.  Three families cover the open-loop
workloads the data-center literature evaluates against:

* **Poisson** — memoryless arrivals at a constant rate λ; the baseline
  whose inter-arrival coefficient of variation is exactly 1.
* **MMPP** — a two-state Markov-modulated Poisson process (ON/OFF
  bursts): exponential sojourns alternate between a hot and a cold
  rate, producing the bursty arrivals (CV > 1) measured behind real
  front-ends.
* **Diurnal** — a raised-cosine rate schedule between a base and a peak
  rate, sampled by Lewis-Shedler thinning; compresses a day's load
  cycle into an experiment horizon.

Every process is a frozen dataclass parseable from — and canonically
printable back to — the CLI's ``--arrivals`` grammar::

    poisson:rate=200
    mmpp:rate_on=500,rate_off=20,mean_on=0.1,mean_off=0.4
    diurnal:base=50,peak=400,period=1.0

Sampling is deterministic in (spec, seed): chunk sizes for vectorized
draws depend only on the spec and horizon, never on sampled values, so
the draw sequence — and therefore every downstream schedule — is
byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Union, runtime_checkable

import numpy as np

__all__ = [
    "ArrivalProcess",
    "DiurnalArrivals",
    "MmppArrivals",
    "PoissonArrivals",
    "parse_arrivals",
]


@runtime_checkable
class ArrivalProcess(Protocol):
    """What the session compiler needs from an arrival process."""

    def sample_times(
        self, rng: np.random.Generator, horizon: float
    ) -> list[float]:
        """Sorted arrival times in ``[0, horizon)``."""
        ...

    def mean_rate(self) -> float:
        """Long-run average arrivals per second (the offered λ)."""
        ...

    def scaled(self, factor: float) -> "ArrivalProcess":
        """The same process with every rate multiplied by ``factor``."""
        ...

    def to_string(self) -> str:
        """Canonical spec string; ``parse_arrivals`` round-trips it."""
        ...


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _poisson_times(
    rng: np.random.Generator,
    rate: float,
    start: float,
    end: float,
    chunk: int,
) -> list[float]:
    """Homogeneous Poisson arrivals in ``[start, end)``.

    Gaps are drawn in fixed-size chunks (``chunk`` depends only on the
    caller's spec, keeping the draw count deterministic) and cumulated
    until the horizon is crossed.
    """
    times: list[float] = []
    t = start
    while True:
        gaps = rng.exponential(1.0 / rate, chunk)
        for gap in gaps:
            t += float(gap)
            if t >= end:
                return times
            times.append(t)


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at a constant ``rate`` per second."""

    rate: float

    def __post_init__(self) -> None:
        _check_positive(rate=self.rate)

    def sample_times(
        self, rng: np.random.Generator, horizon: float
    ) -> list[float]:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        chunk = max(64, int(self.rate * horizon * 0.25) + 16)
        return _poisson_times(rng, self.rate, 0.0, horizon, chunk)

    def mean_rate(self) -> float:
        return self.rate

    def scaled(self, factor: float) -> "PoissonArrivals":
        _check_positive(factor=factor)
        return PoissonArrivals(rate=self.rate * factor)

    def to_string(self) -> str:
        return f"poisson:rate={_fmt(self.rate)}"


@dataclass(frozen=True)
class MmppArrivals:
    """Two-state Markov-modulated Poisson process (ON/OFF bursts).

    Exponential sojourns of mean ``mean_on`` / ``mean_off`` seconds
    alternate between arrival rates ``rate_on`` and ``rate_off``; the
    process starts in the ON state.  With ``rate_on > rate_off`` the
    inter-arrival coefficient of variation strictly exceeds Poisson's 1
    — the property the workload-realism tests pin.
    """

    rate_on: float
    rate_off: float
    mean_on: float
    mean_off: float

    def __post_init__(self) -> None:
        _check_positive(
            rate_on=self.rate_on,
            rate_off=self.rate_off,
            mean_on=self.mean_on,
            mean_off=self.mean_off,
        )
        if self.rate_on <= self.rate_off:
            raise ValueError(
                "rate_on must exceed rate_off (otherwise the ON state "
                "is not the burst state and the process degenerates)"
            )

    def sample_times(
        self, rng: np.random.Generator, horizon: float
    ) -> list[float]:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        times: list[float] = []
        t = 0.0
        on = True
        # Chunk size per state, fixed by the spec alone (determinism).
        chunks = {
            True: max(16, int(self.rate_on * self.mean_on) + 8),
            False: max(16, int(self.rate_off * self.mean_off) + 8),
        }
        while t < horizon:
            mean = self.mean_on if on else self.mean_off
            rate = self.rate_on if on else self.rate_off
            sojourn = float(rng.exponential(mean))
            sojourn_end = min(t + sojourn, horizon)
            times.extend(
                _poisson_times(rng, rate, t, sojourn_end, chunks[on])
            )
            t += sojourn
            on = not on
        return times

    def mean_rate(self) -> float:
        cycle = self.mean_on + self.mean_off
        return (self.rate_on * self.mean_on + self.rate_off * self.mean_off) / cycle

    def scaled(self, factor: float) -> "MmppArrivals":
        _check_positive(factor=factor)
        return MmppArrivals(
            rate_on=self.rate_on * factor,
            rate_off=self.rate_off * factor,
            mean_on=self.mean_on,
            mean_off=self.mean_off,
        )

    def to_string(self) -> str:
        return (
            f"mmpp:rate_on={_fmt(self.rate_on)},rate_off={_fmt(self.rate_off)},"
            f"mean_on={_fmt(self.mean_on)},mean_off={_fmt(self.mean_off)}"
        )


@dataclass(frozen=True)
class DiurnalArrivals:
    """A raised-cosine rate schedule between ``base`` and ``peak``.

    The instantaneous rate is ``base`` at phase 0, ``peak`` half a
    ``period`` later, and back — one compressed day per period.
    Sampling uses Lewis-Shedler thinning against the peak rate, so the
    draw count per chunk depends only on the spec.
    """

    base: float
    peak: float
    period: float

    def __post_init__(self) -> None:
        _check_positive(base=self.base, peak=self.peak, period=self.period)
        if self.peak < self.base:
            raise ValueError("peak rate must be >= base rate")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at absolute time ``t``."""
        phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / self.period))
        return self.base + (self.peak - self.base) * phase

    def sample_times(
        self, rng: np.random.Generator, horizon: float
    ) -> list[float]:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        chunk = max(64, int(self.peak * horizon * 0.25) + 16)
        times: list[float] = []
        t = 0.0
        while True:
            gaps = rng.exponential(1.0 / self.peak, chunk)
            keeps = rng.random(chunk)
            for gap, keep in zip(gaps, keeps):
                t += float(gap)
                if t >= horizon:
                    return times
                if float(keep) * self.peak < self.rate_at(t):
                    times.append(t)

    def mean_rate(self) -> float:
        return 0.5 * (self.base + self.peak)

    def scaled(self, factor: float) -> "DiurnalArrivals":
        _check_positive(factor=factor)
        return DiurnalArrivals(
            base=self.base * factor, peak=self.peak * factor, period=self.period
        )

    def to_string(self) -> str:
        return (
            f"diurnal:base={_fmt(self.base)},peak={_fmt(self.peak)},"
            f"period={_fmt(self.period)}"
        )


def _fmt(value: float) -> str:
    """Shortest exact decimal for a spec float (ints lose the dot)."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: kind -> (constructor, required parameter names) for the grammar.
_KINDS: dict[str, tuple[type, tuple[str, ...]]] = {
    "poisson": (PoissonArrivals, ("rate",)),
    "mmpp": (MmppArrivals, ("rate_on", "rate_off", "mean_on", "mean_off")),
    "diurnal": (DiurnalArrivals, ("base", "peak", "period")),
}

AnyArrivals = Union[PoissonArrivals, MmppArrivals, DiurnalArrivals]


def parse_arrivals(text: str) -> AnyArrivals:
    """Parse the ``--arrivals`` grammar; raises ValueError on bad input.

    The grammar is ``<kind>:<key>=<float>[,<key>=<float>...]`` with the
    exact parameter set of the kind — no defaults, no extras — so a
    typo'd key fails loudly before any simulation runs.
    """
    kind, sep, body = text.strip().partition(":")
    if not sep or not kind:
        raise ValueError(
            f"bad arrival spec {text!r}: expected <kind>:<key>=<value>,... "
            f"with kind one of {', '.join(sorted(_KINDS))}"
        )
    if kind not in _KINDS:
        raise ValueError(
            f"unknown arrival kind {kind!r}; valid kinds: "
            f"{', '.join(sorted(_KINDS))}"
        )
    cls, required = _KINDS[kind]
    params: dict[str, float] = {}
    for token in body.split(","):
        token = token.strip()
        if not token:
            continue
        key, eq, value_text = token.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if not eq or not key:
            raise ValueError(
                f"bad arrival parameter {token!r} in {text!r}: "
                "expected <key>=<float>"
            )
        if key not in required:
            raise ValueError(
                f"unknown parameter {key!r} for {kind!r} arrivals; "
                f"expected: {', '.join(required)}"
            )
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in {text!r}")
        try:
            params[key] = float(value_text)
        except ValueError:
            raise ValueError(
                f"bad value for {key!r} in {text!r}: {value_text!r} "
                "is not a number"
            ) from None
    missing = [name for name in required if name not in params]
    if missing:
        raise ValueError(
            f"arrival spec {text!r} is missing: {', '.join(missing)}"
        )
    result: AnyArrivals = cls(**params)
    return result
