"""Time-series recording for simulations.

:class:`TimeSeries` is an append-only ``(time, value)`` log.
:class:`PeriodicSampler` drives a probe at a fixed period and records
its return value — the pull path every figure's queue-length, window
and throughput curve is made of, mirroring NS2's queue monitors;
:func:`delta_rate` is the probe that bins a cumulative counter into a
rate.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.sim.kernel import Event, Simulator

__all__ = ["PeriodicSampler", "TimeSeries", "delta_rate"]


class TimeSeries:
    """An append-only sequence of ``(time, value)`` samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def last(self) -> tuple[float, float]:
        """The most recent sample.  Raises IndexError when empty."""
        return self.times[-1], self.values[-1]

    def max(self) -> float:
        return max(self.values)

    def min(self) -> float:
        return min(self.values)

    def mean(self) -> float:
        """Unweighted mean of the recorded values."""
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return sum(self.values) / len(self.values)

    def time_average(self) -> float:
        """Time-weighted average, treating samples as a step function.

        Each value is held from its own timestamp to the next sample's
        timestamp; the final sample gets zero weight (it has no known
        duration), so at least two samples are required.
        """
        if len(self.times) < 2:
            raise ValueError("time_average needs at least two samples")
        total = 0.0
        for i in range(len(self.times) - 1):
            total += self.values[i] * (self.times[i + 1] - self.times[i])
        span = self.times[-1] - self.times[0]
        if span <= 0:
            raise ValueError("samples span zero time")
        return total / span

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= time < end`` as a new series."""
        out = TimeSeries(self.name)
        for t, v in zip(self.times, self.values):
            if start <= t < end:
                out.record(t, v)
        return out


class PeriodicSampler:
    """Calls ``probe()`` every ``period`` seconds and logs the result.

    The sampler schedules itself; call :meth:`start` once (optionally at
    a time offset) and :meth:`stop` to end sampling.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        probe: Callable[[], float],
        name: str = "",
    ) -> None:
        if period <= 0:
            raise ValueError("sampling period must be positive")
        self.sim = sim
        self.period = period
        self.probe = probe
        self.series = TimeSeries(name)
        self._event: Optional[Event] = None
        self._stopped = False

    def start(self, at: Optional[float] = None) -> "PeriodicSampler":
        when = self.sim.now if at is None else at
        self._event = self.sim.schedule_at(when, self._tick)
        return self

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    def _tick(self) -> None:
        if self._stopped:
            return
        self.series.record(self.sim.now, float(self.probe()))
        self._event = self.sim.schedule(self.period, self._tick)


def delta_rate(
    counter: Callable[[], float], period: float, scale: float = 1.0
) -> Callable[[], float]:
    """A probe turning a cumulative counter into a per-period rate.

    Each call returns the counter's growth since the previous call (the
    first: since this factory ran) times ``scale``, per ``period``
    seconds.  Hand it to a :class:`PeriodicSampler` of the same period
    to bin a byte or segment counter into bits/s.
    """
    last = counter()

    def probe() -> float:
        nonlocal last
        current = counter()
        delta, last = current - last, current
        return delta * scale / period

    return probe
