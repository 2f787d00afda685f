"""Command-line experiment runner.

Usage::

    python -m repro.experiments fig6 --preset quick
    python -m repro.experiments fig8 --preset paper --jobs 4
    python -m repro.experiments table1 --protocols reno,trim
    python -m repro.experiments all --preset quick --no-cache

Experiments are resolved through :mod:`repro.experiments.registry` and
executed by :class:`repro.runner.SweepRunner`: every figure is a sweep
of independent points, fanned out to ``--jobs`` workers on a pluggable
execution backend (``--backend serial|process``) with a
content-addressed result cache (``--cache-dir`` / ``--no-cache``).
Points are submitted in enumeration order and merged by point index,
so results are bit-identical for any ``--jobs`` value and any backend.
Each experiment prints rows shaped like the paper's figure/table.  A
sweep in which any point failed exits 1 after naming each failure on
stderr.

Sweeps are crash-safe: every completed point is journalled durably to a
JSONL checkpoint next to the result cache (override with
``--checkpoint``), so after a crash, ``kill -9``, or Ctrl-C the same
command with ``--resume`` replays the finished points and runs only the
remainder.  Ctrl-C itself exits with status 130 after flushing whatever
partial report is printable.  ``--fault-plan FILE`` hands a JSON
:class:`~repro.faults.FaultPlan` to experiments that take one (the
``faults`` experiment), and ``--arrivals SPEC`` / ``--replay FILE``
hand an arrival process or a recorded session trace to open-loop
experiments (the ``openloop`` experiment).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Sequence

from repro.experiments import registry
from repro.experiments.base import Experiment
from repro.runner import (
    PointFailure,
    ResultCache,
    SweepCheckpoint,
    SweepInterrupted,
    SweepRunner,
)
from repro.runner.cache import default_cache_dir


def _run_one(
    name: str, exp: Experiment, runner: SweepRunner, args: argparse.Namespace
) -> object:
    """Run one experiment for the CLI's protocol list; returns payload."""
    overrides = {}
    if exp.accepts_fault_plan and args.fault_plan_json is not None:
        overrides["plan_json"] = args.fault_plan_json
    if exp.accepts_openloop:
        if args.arrivals is not None:
            overrides["arrivals"] = args.arrivals
        if args.replay_rows is not None:
            overrides["replay"] = args.replay_rows
    if exp.uses_protocols:
        protocols = exp.select_protocols(args.protocols)
        tasks = [
            (exp, exp.make_params(args.preset, protocol=p, **overrides))
            for p in protocols
        ]
    else:
        tasks = [(exp, exp.make_params(args.preset, **overrides))]
    try:
        payloads = runner.run_many(tasks, seed=args.seed)
    except SweepInterrupted as interrupt:
        _report_partial(tasks, interrupt.payloads)
        raise
    for (experiment, params), payload in zip(tasks, payloads):
        experiment.report(params, payload)
    if exp.uses_protocols:
        return dict(zip(protocols, payloads))
    return payloads[0]


def _report_partial(
    tasks: Sequence[tuple[Experiment, Any]], payloads: Sequence[Any]
) -> None:
    """Best-effort printing of whatever an interrupted sweep reduced."""
    for (experiment, params), payload in zip(tasks, payloads):
        if payload is None:
            continue
        try:
            experiment.report(params, payload)
        except Exception as exc:  # noqa: BLE001 - partial payloads may not print
            # A reporter written for complete sweeps may choke on the
            # holes; fall back to the raw payload so an interrupted run
            # never exits with its surviving data invisible.
            print(
                f"[{experiment.id}] report failed on partial payload "
                f"({type(exc).__name__}: {exc}); raw payload follows:",
                file=sys.stderr,
            )
            print(repr(payload), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        # ``trace`` is a report subcommand, not an experiment: render or
        # validate JSONL trace files written by --trace runs.  Dispatched
        # before argparse because the experiment positional has a closed
        # choice list.
        from repro.obs import report

        return report.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run TCP-TRIM reproduction experiments.",
    )
    parser.add_argument("experiment", choices=registry.ids() + ["all"])
    parser.add_argument("--preset", choices=("quick", "paper"), default="quick")
    parser.add_argument(
        "--protocols",
        default="reno,trim",
        help="comma-separated protocol list (default: reno,trim)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep points (default: 1, inline)",
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "process"),
        default=None,
        help="sweep execution backend: serial (inline) or process "
        "(worker pool, pickle transport; a pool broken by a worker "
        "death is replaced); default picks serial under --jobs 1 and "
        "process otherwise. Results, and what happens to a point that "
        "fails (--retry-policy), are identical under both backends.",
    )
    parser.add_argument(
        "--retry-policy",
        default=None,
        metavar="SPEC",
        help="failure-handling policy, e.g. 'attempts=3,transient=8': "
        "attempts caps a point's total executions for its own errors "
        "and timeouts (default 2), transient budgets environment-fault "
        "retries separately: a pool worker that dies mid-point costs "
        "each point in the pool one transient retry (default 8).",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="sweep result cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-experiments)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the sweep result cache for this run",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point timeout in seconds: a point still running "
        "after this long is resubmitted within the retry budget and "
        "the earliest-submitted success wins (process backend; an "
        "inline point cannot be preempted)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL journal of completed sweep points (default: "
        "checkpoints/<experiment>-<preset>-seed<seed>.jsonl next to the "
        "result cache); every finished point is fsynced there, so a "
        "killed sweep can --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay points already in the checkpoint journal and run "
        "only the unfinished remainder (results identical to an "
        "uninterrupted run)",
    )
    parser.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="disable the sweep checkpoint journal for this run",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        help="JSON FaultPlan file handed to experiments that take one "
        "(see the faults experiment and repro.faults.FaultPlan)",
    )
    parser.add_argument(
        "--arrivals",
        default=None,
        metavar="SPEC",
        help="arrival-process spec for open-loop experiments, e.g. "
        "'poisson:rate=200', 'mmpp:rate_on=500,rate_off=20,"
        "mean_on=0.1,mean_off=0.4', or 'diurnal:base=50,peak=400,"
        "period=1.0' (see the openloop experiment and EXPERIMENTS.md, "
        "Open-loop load)",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="JSONL session trace of (t, session, size) rows to replay "
        "instead of sampling arrivals (written by "
        "repro.http.openloop.write_trace; open-loop experiments only)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-point progress/ETA lines to stderr",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="enable runtime invariant checks (monotonic event time, "
        "per-queue packet conservation, protocol-state sanity) in every "
        "simulation, including sweep worker processes",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="SPEC",
        help="flight-recorder capture: comma-separated channels "
        "(cwnd, rtt, state, probe, queue, rto, fault, session, pool "
        "or 'all'), with "
        "optional @N decimation on sample channels and flow=<id>/"
        "link=<glob> filters, e.g. 'cwnd@8,probe,queue'; one JSONL "
        "trace file is written per executed sweep point (see "
        "EXPERIMENTS.md, Tracing)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="directory for the per-point JSONL trace files "
        "(default: ./traces); requires --trace",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write a JSON artifact of the measured results to this path",
    )
    args = parser.parse_args(argv)
    if args.check_invariants:
        # The environment is the one channel every Simulator sees —
        # including those built inside sweep worker processes, which
        # inherit it across the fork/spawn boundary.
        os.environ["REPRO_CHECK_INVARIANTS"] = "1"
    if args.trace_out is not None and args.trace is None:
        parser.error("--trace-out requires --trace")
    if args.trace is not None:
        from repro.obs import TraceSpec

        try:
            spec = TraceSpec.parse(args.trace)
        except ValueError as exc:
            parser.error(f"--trace: {exc}")
        # Same channel as --check-invariants: the environment reaches
        # every Simulator, inline or in a sweep worker.
        os.environ["REPRO_TRACE"] = spec.to_string()
        if args.trace_out is not None:
            os.environ["REPRO_TRACE_OUT"] = args.trace_out
    args.protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.protocols:
        parser.error("--protocols must name at least one protocol")
    from repro.tcp.factory import source_class

    for protocol in args.protocols:
        try:
            source_class(protocol)
        except ValueError as exc:
            parser.error(str(exc))

    # Resolving an id imports its module, so resolve only what runs.
    names = registry.ids() if args.experiment == "all" else [args.experiment]
    experiments = {name: registry.get(name) for name in names}

    args.fault_plan_json = None
    if args.fault_plan is not None:
        from repro.faults import FaultPlan

        try:
            with open(args.fault_plan, "r", encoding="utf-8") as fh:
                args.fault_plan_json = fh.read()
            FaultPlan.from_json(args.fault_plan_json)  # validate early
        except (OSError, ValueError) as exc:
            parser.error(f"--fault-plan {args.fault_plan}: {exc}")
        if not any(exp.accepts_fault_plan for exp in experiments.values()):
            parser.error(
                f"--fault-plan: experiment {args.experiment!r} does not "
                "take a fault plan (try the 'faults' experiment)"
            )

    args.replay_rows = None
    if args.arrivals is not None and args.replay is not None:
        parser.error("--arrivals and --replay are mutually exclusive")
    if args.arrivals is not None or args.replay is not None:
        flag = "--arrivals" if args.arrivals is not None else "--replay"
        if not any(exp.accepts_openloop for exp in experiments.values()):
            parser.error(
                f"{flag}: experiment {args.experiment!r} does not take "
                "an open-loop schedule (try the 'openloop' experiment)"
            )
    if args.arrivals is not None:
        from repro.http.openloop import parse_arrivals

        try:
            parse_arrivals(args.arrivals)  # validate early
        except ValueError as exc:
            parser.error(f"--arrivals: {exc}")
    if args.replay is not None:
        from repro.http.openloop import load_trace

        try:
            schedule = load_trace(args.replay)
        except (OSError, ValueError) as exc:
            parser.error(f"--replay {args.replay}: {exc}")
        args.replay_rows = tuple(
            (r.time, r.session, r.size_bytes) for r in schedule
        )

    cache_root = os.path.expanduser(args.cache_dir or default_cache_dir())
    if os.path.exists(cache_root) and not os.path.isdir(cache_root):
        parser.error(f"--cache-dir {cache_root}: exists and is not a directory")
    cache = None
    if not args.no_cache:
        cache = ResultCache(cache_root)
    if args.resume and args.no_checkpoint:
        parser.error("--resume needs the checkpoint journal (--no-checkpoint given)")
    checkpoint = None
    if not args.no_checkpoint:
        if args.checkpoint and os.path.isdir(os.path.expanduser(args.checkpoint)):
            parser.error(f"--checkpoint {args.checkpoint}: is a directory")
        checkpoint_path = args.checkpoint or os.path.join(
            cache_root,
            "checkpoints",
            f"{args.experiment}-{args.preset}-seed{args.seed}.jsonl",
        )
        checkpoint = SweepCheckpoint(checkpoint_path)

    retry_policy = None
    if args.retry_policy is not None:
        from repro.runner import RetryPolicy

        try:
            retry_policy = RetryPolicy.parse(args.retry_policy)
        except ValueError as exc:
            parser.error(f"--retry-policy: {exc}")

    try:
        runner = SweepRunner(
            jobs=args.jobs,
            cache=cache,
            timeout=args.timeout,
            retry_policy=retry_policy,
            progress=args.progress,
            label=args.experiment,
            checkpoint=checkpoint,
            resume=args.resume,
            backend=args.backend,
        )
    except ValueError as exc:  # --jobs and --resume are checked above
        parser.error(f"--timeout: {exc}")
    artifacts = {}
    totals = {"hits": 0, "executed": 0}
    failures: list[PointFailure] = []

    def run_selected() -> None:
        seen: set[str] = set()
        for name, exp in experiments.items():
            if exp.id in seen:  # aliases (fig2, fig6, table1...) run once
                continue
            seen.add(exp.id)
            print(f"=== {name} (preset={args.preset}) ===")
            start = time.perf_counter()
            artifacts[name] = _run_one(name, exp, runner, args)
            stats = runner.last_stats
            if stats is not None:
                totals["hits"] += stats.cache_hits
                totals["executed"] += stats.executed
                failures.extend(stats.failures)
            note = ""
            if stats is not None and stats.cache_hits:
                note += f", {stats.cache_hits}/{stats.total_points} cached"
            if stats is not None and stats.resumed:
                note += f", {stats.resumed}/{stats.total_points} resumed"
            print(f"    [{time.perf_counter() - start:.1f}s{note}]\n")

    interrupted = False
    try:
        run_selected()
    except KeyboardInterrupt as interrupt:
        # Completed points are already fsynced to the checkpoint; tell
        # the user how to pick the sweep back up and exit like an
        # interrupted process should (128 + SIGINT).
        interrupted = True
        done = 0
        if isinstance(interrupt, SweepInterrupted):
            done = (interrupt.stats.executed + interrupt.stats.cache_hits
                    + interrupt.stats.resumed)
        print("\ninterrupted", file=sys.stderr)
        if checkpoint is not None:
            print(
                f"  {done} completed point(s) journalled to {checkpoint.path}\n"
                "  re-run the same command with --resume to finish the sweep",
                file=sys.stderr,
            )
    total_hits, total_executed = totals["hits"], totals["executed"]
    if args.trace is not None and not interrupted:
        from repro.obs.capture import trace_dir

        print(
            f"traces written to {trace_dir()}/ "
            "(render with: python -m repro.experiments trace <file>)"
        )
    if args.output and not interrupted:
        from repro.experiments.store import save_results

        path = save_results(
            args.output,
            experiment=args.experiment,
            payload=artifacts,
            preset=args.preset,
            seed=args.seed,
            metadata={
                "jobs": args.jobs,
                "cache_hits": total_hits,
                "executed_points": total_executed,
            },
        )
        print(f"results written to {path}")
    if interrupted:
        return 130
    for failure in failures:
        print(
            f"FAILED {failure.experiment_id}/{failure.label}: "
            f"kind={failure.kind} attempts={failure.attempts} "
            f"error={failure.error}",
            file=sys.stderr,
        )
    if failures:
        # The sweep *completed* — every healthy point has its result —
        # but a failed point must not pass silently.
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
