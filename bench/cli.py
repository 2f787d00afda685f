"""Command line of the benchmark.

``measure`` is the entry the driver calls (one workload, this process,
one JSON object on the last line of stdout).  ``run`` and ``trace``
call it once per workload, each in a fresh subprocess, and collect the
detailed documents into one results file; ``compare`` judges two such
files; ``list`` prints the document ``BENCHMARK.json`` is generated from.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from bench import OUT_DIR, ROOT
from bench.spec import RUN_SECONDS, benchmark_document
from bench.workloads import WORKLOADS, by_name

__all__ = ["main"]

RESULTS_SCHEMA = "bench-results/1"
DEFAULT_SEED = 1
_NAMES = [w.name for w in WORKLOADS]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="one workload in this process")
    measure.add_argument("--workload", required=True, choices=_NAMES)
    measure.add_argument("--seed", type=int, default=DEFAULT_SEED)
    measure.add_argument("--seconds", type=float, default=RUN_SECONDS)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--detail", type=Path, default=None,
                         help="also write the detailed result document here")

    probe = sub.add_parser("setup-probe", help="print this process's set-up seconds")
    probe.add_argument("--workload", required=True, choices=_NAMES)

    for name, text in (("run", "every workload untraced, end-to-end metrics"),
                       ("trace", "every workload traced, per-layer metrics")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
        cmd.add_argument("--out", type=Path, default=None,
                         help=f"results file (default bench/out/{name}.json)")

    compare = sub.add_parser("compare", help="judge results B against base A")
    compare.add_argument("base", type=Path)
    compare.add_argument("change", type=Path)

    sub.add_parser("list", help="workloads, metrics and bounds as JSON")
    return parser


# ----------------------------------------------------------------------
# measure / setup-probe: this process does the work
# ----------------------------------------------------------------------
def _measure(args: argparse.Namespace, t0: float) -> int:
    from bench import harness

    workload = by_name(args.workload)
    if args.trace:
        detail = harness.measure_traced(workload, args.seed)
    else:
        detail = harness.measure(workload, args.seed, args.seconds, t0)
    if args.detail is not None:
        args.detail.write_text(json.dumps(detail, indent=1))
    for check in detail["checks"]:
        if not check["ok"]:
            print(f"bench: check {check['name']} failed: {check['detail']}",
                  file=sys.stderr)
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in detail["metrics"].items()
        },
    }))
    return 0 if detail["correct"] else 1


def _setup_probe(args: argparse.Namespace, t0: float) -> int:
    from bench import harness

    print(repr(harness.setup_probe(by_name(args.workload), t0)))
    return 0


# ----------------------------------------------------------------------
# run / trace: one fresh subprocess per workload
# ----------------------------------------------------------------------
def _git_rev() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _print_workload(detail: dict[str, Any]) -> None:
    name = detail["workload"]
    for metric, m in detail["metrics"].items():
        extra = ""
        if "n" in m:
            extra = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
        print(f"{name:18s} {metric:28s} {m['value']:14.6g} {m['unit']}{extra}")
    share = detail["failed_share"]
    print(f"{name:18s} {'failed_share':28s} {share:14.6g} ratio"
          f"  [{detail['failed']} of {detail['attempted']}]")
    fingerprint = detail["sim_fingerprint"]
    key = ", ".join(f"{k}={v:.6g}" for k, v in fingerprint["key"].items())
    print(f"{name:18s} sim_fingerprint {fingerprint['sha256'][:16]}  {key}")
    print(f"{name:18s} workload_digest {detail['workload_digest'][:16]}")
    if detail.get("noisy"):
        print(f"{name:18s} NOISY: iteration walls spread "
              f"{detail['wall_spread']:.1%} of their median")
    for check in detail["checks"]:
        if not check["ok"]:
            print(f"{name:18s} CHECK FAILED {check['name']}: {check['detail']}")


def _run_all(args: argparse.Namespace, trace: int) -> int:
    kind = "trace" if trace else "run"
    out = args.out if args.out is not None else OUT_DIR / f"{kind}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    document: dict[str, Any] = {
        "schema": RESULTS_SCHEMA,
        "kind": kind,
        "seed": args.seed,
        "seconds": None if trace else RUN_SECONDS,
        "git_rev": _git_rev(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory(dir=out.parent) as scratch:
        for name in _NAMES:
            detail_path = Path(scratch) / f"{name}.json"
            command = [
                sys.executable, "-m", "bench", "measure", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(RUN_SECONDS),
                "--trace", str(trace), "--detail", str(detail_path),
            ]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  check=False)
            if not detail_path.is_file():
                print(f"{name}: measure exited {proc.returncode} without a result",
                      file=sys.stderr)
                status = 1
                continue
            detail = json.loads(detail_path.read_text())
            document["workloads"][name] = detail
            _print_workload(detail)
            if proc.returncode != 0 or not detail["correct"]:
                status = 1
    out.write_text(json.dumps(document, indent=1))
    print(f"results written to {out}")
    return status


# ----------------------------------------------------------------------
def main(argv: Sequence[str], t0: float) -> int:
    args = _parser().parse_args(argv)
    if args.command == "measure":
        return _measure(args, t0)
    if args.command == "setup-probe":
        return _setup_probe(args, t0)
    if args.command == "run":
        return _run_all(args, trace=0)
    if args.command == "trace":
        return _run_all(args, trace=1)
    if args.command == "compare":
        from bench.compare import compare_files

        return compare_files(args.base, args.change)
    print(json.dumps(benchmark_document(), indent=2))
    return 0
