"""Layer probes for the simulation hot path.

``python -m repro.perf`` runs four named microbenchmarks — pure kernel
event churn, single-link saturation, and a TCP-TRIM probe cycle with the
flight recorder off and on — and prints median/p90 wall-clock and
executed events per second: a seconds-long local A/B tool for the
layers the benchmark of record (``bench/``) can only attribute.  It
gates nothing on wall time; the events each probe executes are exact on
any host and pinned by ``tests/test_perf.py``.

See :mod:`repro.perf.harness` for the optional JSON artifact.
"""

from repro.perf.benchmarks import BENCHMARKS, BenchmarkSpec
from repro.perf.harness import (
    BENCH_SCHEMA,
    BenchResult,
    run_benchmark,
    write_bench_json,
)

__all__ = [
    "BENCHMARKS",
    "BENCH_SCHEMA",
    "BenchResult",
    "BenchmarkSpec",
    "run_benchmark",
    "write_bench_json",
]
