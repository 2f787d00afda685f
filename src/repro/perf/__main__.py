"""Command-line microbenchmark runner.

Usage::

    python -m repro.perf --quick                    # CI smoke: small scales
    python -m repro.perf                            # full scales
    python -m repro.perf --bench kernel_churn --repeats 9
    python -m repro.perf --quick --output BENCH_kernel.json

The table on stdout is the result; a ``repro-bench/2`` artifact is
written only where ``--output`` says.  Exit status is non-zero only when
a benchmark is not deterministic across its repeats.
"""

from __future__ import annotations

import argparse
import sys

from repro.perf.benchmarks import BENCHMARKS
from repro.perf.harness import run_benchmark, write_bench_json


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run simulation hot-path microbenchmarks.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small work sizes (CI smoke); default is the full sizes",
    )
    parser.add_argument(
        "--bench",
        action="append",
        choices=[spec.name for spec in BENCHMARKS],
        help="run only this benchmark (repeatable; default: all)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timed repetitions per benchmark (default: 5)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write a BENCH JSON artifact here (default: write nothing)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list benchmarks and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for spec in BENCHMARKS:
            print(f"{spec.name:18s} {spec.description}")
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    selected = [
        spec
        for spec in BENCHMARKS
        if args.bench is None or spec.name in args.bench
    ]
    results = {}
    print(f"mode={'quick' if args.quick else 'full'} repeats={args.repeats}")
    for spec in selected:
        result = run_benchmark(spec, repeats=args.repeats, quick=args.quick)
        results[spec.name] = result
        print(
            f"  {spec.name:18s} events={result.events:9,d}  "
            f"median={result.wall_median_s * 1e3:8.1f} ms  "
            f"p90={result.wall_p90_s * 1e3:8.1f} ms  "
            f"{result.events_per_sec:12,.0f} events/s"
        )
    if args.output is not None:
        out = write_bench_json(args.output, results, quick=args.quick)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
