"""Terminal rendering of simulation results.

The examples and the CLI runner visualize time series and CDFs without
any plotting dependency: sparklines for single series, strip charts for
a handful of flows, and fixed-width CDF tables.  Pure functions over
:class:`~repro.sim.monitor.TimeSeries` and number sequences, so they
are unit-testable.
"""

from __future__ import annotations

from typing import Sequence

from repro.metrics.stats import _mean, _quantile
from repro.sim.monitor import TimeSeries

__all__ = ["cdf_table", "sparkline", "strip_chart"]

SPARK_GLYPHS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A one-line bar rendering of ``values``, resampled to ``width``.

    Empty input gives an empty string; a constant series renders at the
    lowest non-blank glyph so it stays visible.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    values = list(values)
    if not values:
        return ""
    # Resample by bucket-averaging onto `width` columns.
    step = len(values) / width
    edges = [int(column * step) for column in range(width)] + [len(values)]
    columns = [
        _mean(values[a:b]) if b > a else float(values[min(a, len(values) - 1)])
        for a, b in zip(edges, edges[1:])
    ]
    lo, hi = float(min(columns)), float(max(columns))
    span = hi - lo
    glyphs = []
    for c in columns:
        if span == 0:
            level = 1
        else:
            level = 1 + int((c - lo) / span * (len(SPARK_GLYPHS) - 2))
        glyphs.append(SPARK_GLYPHS[level])
    return "".join(glyphs)


def strip_chart(
    series: Sequence[TimeSeries],
    peak: float,
    rows: int = 30,
    width: int = 60,
    glyphs: str = "123456789",
) -> list[str]:
    """Render several flows' time series as rows of positioned digits.

    Each output row covers one time slice; each series' mean value in
    that slice places its digit in a column proportional to
    ``value / peak``.  Returns the rows as strings (caller prints).
    """
    if peak <= 0:
        raise ValueError("peak must be positive")
    if rows < 1 or width < 2:
        raise ValueError("need at least 1 row and 2 columns")
    populated = [s for s in series if len(s)]
    if not populated:
        return []
    t0 = min(s.times[0] for s in populated)
    t1 = max(s.times[-1] for s in populated)
    if t1 <= t0:
        return []
    step = (t1 - t0) / rows
    out = []
    for row in range(rows):
        start, end = t0 + row * step, t0 + (row + 1) * step
        line = [" "] * width
        for idx, s in enumerate(series):
            window = s.window(start, end)
            value = window.mean() if len(window) else 0.0
            col = min(width - 1, int(value / peak * (width - 1)))
            line[col] = glyphs[idx % len(glyphs)]
        out.append(f"{start:9.3f}s |{''.join(line)}|")
    return out


CDF_QUANTILES = (0.5, 0.9, 0.95, 0.99, 1.0)


def cdf_table(samples: Sequence[float]) -> list[str]:
    """Fixed-width rows of the :data:`CDF_QUANTILES` of a sample of
    completion times (in seconds), printed in milliseconds."""
    if not len(samples):
        raise ValueError("no samples")
    ordered = sorted(map(float, samples))
    rows = []
    for q in CDF_QUANTILES:
        value = _quantile(ordered, q)
        rows.append(f"p{q * 100:5.1f}  {value * 1e3:10.3f} ms")
    return rows
