"""Timing harness and BENCH JSON artifact handling.

One :class:`BenchResult` per benchmark: the wall-clock distribution over
``repeats`` runs (median and p90) and the executed-event throughput.
``write_bench_json`` serializes a run to the ``repro-bench/2`` schema::

    {
      "schema": "repro-bench/2",
      "mode": "quick" | "full",
      "python": "3.12.1",
      "platform": "Linux-...",
      "peak_rss_kb": 34816,
      "results": {
        "kernel_churn": {
          "repeats": 5,
          "scale": 25,
          "events": 50050,
          "sim_seconds": 0.7,
          "wall_median_s": 0.041,
          "wall_p90_s": 0.043,
          "events_per_sec": 1257317.0
        },
        ...
      }
    }

``peak_rss_kb`` is the process's lifetime high-water mark, so there is
one per run, in the header, not one per benchmark.  No timestamps on
purpose: a timestamp would make byte-identical runs produce different
files.

The wall-clock numbers are for a local A/B on one host (run the parent,
run the change, read the two tables); nothing compares them to a
committed file.  What must hold everywhere — each benchmark's ``events``
— is pinned by ``tests/test_perf.py``, and a speed *claim* goes through
the benchmark of record (``python3 -m bench measure`` pairs, see
EXPERIMENTS.md "Performance").
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Union

from repro.perf.benchmarks import BenchmarkSpec

__all__ = ["BENCH_SCHEMA", "BenchResult", "run_benchmark", "write_bench_json"]

BENCH_SCHEMA = "repro-bench/2"


@dataclass
class BenchResult:
    """Aggregated measurement for one benchmark."""

    repeats: int
    scale: int
    events: int
    sim_seconds: float
    wall_median_s: float
    wall_p90_s: float
    events_per_sec: float


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (ru_maxrss is bytes on macOS, KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def run_benchmark(
    spec: BenchmarkSpec, repeats: int = 5, quick: bool = True
) -> BenchResult:
    """Time ``spec`` over ``repeats`` runs (plus one untimed warm-up).

    The warm-up run absorbs import costs, allocator growth, and branch
    warmup; every timed repeat must produce the identical behavior
    checksum or the benchmark is broken (a non-deterministic benchmark
    measures different work each time) and a ``RuntimeError`` is raised.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    scale = spec.scale_for(quick)
    reference = spec.fn(scale)  # warm-up, untimed
    walls: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        run = spec.fn(scale)
        walls.append(time.perf_counter() - start)
        if run.checksum != reference.checksum:
            raise RuntimeError(
                f"benchmark {spec.name!r} is not deterministic: checksum "
                f"{run.checksum} != {reference.checksum}"
            )
    median = statistics.median(walls)
    # quantiles() needs two points; one repeat is its own p90.
    p90 = (
        statistics.quantiles(walls, n=10, method="inclusive")[-1]
        if repeats > 1
        else median
    )
    return BenchResult(
        repeats=repeats,
        scale=scale,
        events=reference.events,
        sim_seconds=reference.sim_seconds,
        wall_median_s=median,
        wall_p90_s=p90,
        events_per_sec=reference.events / median if median > 0 else float("inf"),
    )


def write_bench_json(
    path: Union[str, Path],
    results: dict[str, BenchResult],
    quick: bool = True,
) -> Path:
    """Serialize ``results`` to the ``repro-bench/2`` schema at ``path``."""
    payload = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "peak_rss_kb": _peak_rss_kb(),
        "results": {name: asdict(res) for name, res in results.items()},
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out
