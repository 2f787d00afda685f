"""Measuring one workload in the current (fresh) process.

A run is: prepare (imports, registry, explicit params, temp dir), a few
set-up probes in fresh interpreters, a warm-up, then back-to-back timed
iterations for a fixed number of host seconds.  In host time every
workload is a closed loop of iterations from this one process; only
``openloop_sessions`` is open-loop, and only in *simulated* time.

Every number says which clock it uses: ``*_s`` metrics and
``pkt_hops_per_s`` are host time and noisy; counts, ratios of counts and
the ``sim_fingerprint`` are simulated results, exact for a given seed,
and must repeat in every iteration.

The traced run (:func:`measure_traced`) is separate: one untraced and
one traced iteration, the second under a harness-owned ``cProfile`` with
spans around the harness's own calls.  It never feeds an end-to-end
metric.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from bench import OUT_DIR, ROOT, ensure_repro_importable
from bench.attribution import WAIT, PhaseProfiler, attribute
from bench.observe import ObservedExperiment, Observer, Tracer, merge_counts, span
from bench.spec import END_TO_END, LAYERS, PER_LAYER
from bench.workloads import Workload, build_tasks, workload_digest

__all__ = [
    "Iteration",
    "N_SETUP_PROBES",
    "NOISY_SPREAD",
    "Prepared",
    "canonical",
    "measure",
    "measure_traced",
    "prepare",
    "quartiles",
    "setup_probe",
]

_now = time.perf_counter

#: fresh interpreters started per run to sample set-up time; with the
#: run's own set-up that is five samples for the reported median.
N_SETUP_PROBES = 4
#: a run whose iteration walls spread (IQR / median) wider than this is
#: flagged ``noisy``: its medians still stand, single samples do not.
NOISY_SPREAD = 0.10
#: env switches that would change what a default simulation does.
_PROGRAM_ENV = ("REPRO_CHECK_INVARIANTS", "REPRO_TRACE", "REPRO_TRACE_OUT")


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def canonical(obj: Any) -> Any:
    """A JSON-able form of a reduced payload that keeps every float digit."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        doc = {f.name: canonical(getattr(obj, f.name))
               for f in dataclasses.fields(obj)}
        doc["__type__"] = type(obj).__name__
        return doc
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot fingerprint a {type(obj).__name__}")


def _sha256(payloads: Any) -> str:
    text = json.dumps(canonical(payloads), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _failed_share(failed: int, attempted: int) -> float:
    """Operations not completed / operations offered.  A run that offered
    nothing has shown nothing to complete, so it counts as all failed."""
    return failed / attempted if attempted else 1.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    """Everything an iteration needs, built once per process."""

    workload: Workload
    tasks: list[tuple[Any, Any]]
    digest: str
    n_points: int
    tmp: Path
    import_s: float


def prepare(workload: Workload) -> Prepared:
    """Imports, registry, explicit params and the run's temp dir."""
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    ensure_repro_importable()
    started = _now()
    import repro.runner  # noqa: F401 - pays the import the iterations rely on
    from repro.experiments import registry

    registry.ids()  # loads every experiment module, as the CLI does
    import_s = _now() - started
    tasks = build_tasks(workload)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    return Prepared(
        workload=workload,
        tasks=tasks,
        digest=workload_digest(workload, tasks),
        n_points=sum(len(e.points(p)) for e, p in tasks),
        tmp=tmp,
        import_s=import_s,
    )


def setup_probe(workload: Workload, t0: float) -> float:
    """What one fresh process spends before it could start iterating.

    Called by ``python3 -m bench setup-probe`` with ``t0`` taken on the
    first line of that process.
    """
    prep = prepare(workload)
    try:
        with Observer():
            return _now() - t0
    finally:
        shutil.rmtree(prep.tmp, ignore_errors=True)


def _spawn_setup_probe(workload: Workload) -> float:
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "setup-probe", "--workload", workload.name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------
@dataclass
class Iteration:
    """What one pass over a workload's points did and cost."""

    wall_s: float
    #: the reduced payload of every task (not written to any result file).
    payloads: Any
    fingerprint: str
    key: dict[str, float]
    attempted: int
    failed: int
    #: public counters read after the points ran (empty for pool passes:
    #: their simulators live in worker processes).
    counts: dict[str, float] = field(default_factory=dict)
    #: host seconds inside ``Simulator.run``.
    run_s: float = 0.0
    points: int = 0
    #: pool passes only: seconds per pass and the runner's own tallies.
    runner: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class _Run:
    """State shared by the passes of one ``measure`` call."""

    def __init__(self, prep: Prepared, seed: int, observer: Observer) -> None:
        self.prep = prep
        self.seed = seed
        self.observer = observer
        self.pool_index = 0

    def _summarize(self, payloads: Sequence[Any]) -> tuple[dict[str, float], int, int]:
        workload = self.prep.workload
        key: dict[str, float] = {}
        attempted = failed = 0
        for (_experiment, params), payload in zip(self.prep.tasks, payloads):
            for name, value in workload.key(params, payload).items():
                key[f"{params.protocol}.{name}"] = value
            offered, missed = workload.ops(params, payload)
            attempted += offered
            failed += missed
        return key, attempted, failed

    # ------------------------------------------------------------------
    def serial_pass(self) -> Iteration:
        """Every point inline through ``SweepRunner``, counters read."""
        from repro.runner import SweepRunner

        observer = self.observer
        observer.reset()
        observed = [
            (ObservedExperiment(experiment, observer), params)
            for experiment, params in self.prep.tasks
        ]
        runner = SweepRunner(jobs=1, backend="serial")
        gc.collect()
        start = _now()
        with span(observer.tracer, "iteration"):
            payloads = runner.run_many(observed, seed=self.seed)
        wall = _now() - start
        observer.harvest()
        key, attempted, failed = self._summarize(payloads)
        stats = runner.last_stats
        problems = [
            f"point {f.experiment_id}/{f.label} failed: {f.error}"
            for f in stats.failures
        ]
        return Iteration(
            wall_s=wall,
            payloads=payloads,
            fingerprint=_sha256(payloads),
            key=key,
            attempted=attempted,
            failed=failed,
            counts=dict(observer.counts),
            run_s=observer.run_s,
            points=sum(e.points_run for e, _p in observed),
            problems=problems,
        )

    # ------------------------------------------------------------------
    def pool_passes(self, reference: str) -> Iteration:
        """Cold, warm and resume passes on a fresh cache and journal.

        ``reference`` is the serial pass's fingerprint: all three passes
        must reduce to the same payloads.
        """
        from repro.runner import ResultCache, SweepCheckpoint, SweepRunner

        prep = self.prep
        tracer = self.observer.tracer
        root = prep.tmp / f"pool-{self.pool_index}"
        self.pool_index += 1
        journal = root / "journal.jsonl"
        seconds: dict[str, float] = {}
        fingerprints: dict[str, str] = {}
        tallies: dict[str, float] = {}
        problems: list[str] = []

        def one_pass(name: str, resume: bool) -> Any:
            # Fresh objects per pass, as three CLI invocations would be.
            start = _now()
            checkpoint = SweepCheckpoint(journal)
            runner = SweepRunner(
                jobs=prep.workload.pool_jobs,
                backend="process",
                cache=ResultCache(root / "cache"),
                checkpoint=checkpoint,
                resume=resume,
            )
            try:
                with span(tracer, name), span(tracer, "run_many"):
                    out = runner.run_many(prep.tasks, seed=self.seed)
            finally:
                checkpoint.close()
            seconds[name] = _now() - start
            fingerprints[name] = _sha256(out)
            if fingerprints[name] != reference:
                problems.append(f"{name} pass payloads differ from the serial pass")
            stats = runner.last_stats
            for failure in stats.failures:
                problems.append(f"{name}: point {failure.label} failed: "
                                f"{failure.error}")
            tallies["retries"] = tallies.get("retries", 0) + stats.transient_retries
            tallies["failures"] = tallies.get("failures", 0) + len(stats.failures)
            return out, stats

        gc.collect()
        try:
            payloads, cold = one_pass("cold", False)
            tallies["journal_bytes"] = journal.stat().st_size
            _warm_payloads, warm = one_pass("warm", False)
            _resume_payloads, resumed = one_pass("resume", True)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        tallies["cache_hits"] = warm.cache_hits
        tallies["resumed"] = resumed.resumed
        if cold.executed != prep.n_points:
            problems.append(f"cold pass executed {cold.executed} of "
                            f"{prep.n_points} points")
        if warm.cache_hits != prep.n_points:
            problems.append(f"warm pass had {warm.cache_hits} cache hits, "
                            f"not {prep.n_points}")
        if resumed.resumed != prep.n_points:
            problems.append(f"resume pass replayed {resumed.resumed} points, "
                            f"not {prep.n_points}")
        key, attempted, failed = self._summarize(payloads)
        runner_info = {f"{k}_s": v for k, v in seconds.items()}
        runner_info.update(tallies)
        return Iteration(
            wall_s=sum(seconds.values()),
            payloads=payloads,
            fingerprint=fingerprints["cold"],
            key=key,
            attempted=attempted,
            failed=failed,
            points=prep.n_points,
            runner=runner_info,
            problems=problems,
        )

    # ------------------------------------------------------------------
    def iteration(self, reference: Optional[Iteration]) -> Iteration:
        """One timed iteration: the pool passes when a serial reference
        pass exists (a pool workload), else the serial pass itself."""
        if reference is None:
            return self.serial_pass()
        return self.pool_passes(reference.fingerprint)

    def warm_up(self) -> None:
        """The first point of every task, outside the runner: pays lazy
        imports and first-call costs without spending a whole iteration
        of the run's time budget."""
        from repro.sim.randomness import derive_seed

        for experiment, params in self.prep.tasks:
            point = experiment.points(params)[0]
            seed = derive_seed(self.seed, f"{experiment.id}/{point.label}")
            experiment.run_point(params, point, seed)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check(checks: list[dict[str, Any]], name: str, problems: Sequence[str]) -> None:
    checks.append({"name": name, "ok": not problems, "detail": list(problems)[:5]})


def _repeatability(iterations: Sequence[Iteration]) -> list[str]:
    first = iterations[0]
    problems = []
    for index, it in enumerate(iterations[1:], start=1):
        if it.fingerprint != first.fingerprint:
            problems.append(f"iteration {index}: sim_fingerprint differs")
        if it.counts != first.counts:
            problems.append(f"iteration {index}: event/packet counts differ")
        if (it.attempted, it.failed) != (first.attempted, first.failed):
            problems.append(f"iteration {index}: operation counts differ")
    return problems


# ----------------------------------------------------------------------
# The untraced run
# ----------------------------------------------------------------------
def _environment() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    t0: float,
    probes: int = N_SETUP_PROBES,
    iterate: Callable[[_Run, Optional[Iteration]], Iteration] = _Run.iteration,
) -> dict[str, Any]:
    """One untraced run; returns the detailed result document.

    ``t0`` is the ``perf_counter`` reading from the first line of the
    process.  ``iterate`` replaces the workload's iteration (tests use
    it to force a fingerprint mismatch).
    """
    load_start = os.getloadavg()
    prep = prepare(workload)
    checks: list[dict[str, Any]] = []
    try:
        with Observer() as observer:
            setup_samples = [_now() - t0]
            setup_samples += [_spawn_setup_probe(workload) for _ in range(probes)]
            run = _Run(prep, seed, observer)

            warm_start = _now()
            reference: Optional[Iteration] = None
            if workload.pool_jobs is not None:
                # The one-off serial pass is the reference for payloads
                # and counters, and warms this process up as well.
                reference = run.serial_pass()
            else:
                run.warm_up()
            warmup_s = _now() - warm_start

            iterations: list[Iteration] = []
            loop_start = _now()
            while True:
                iterations.append(iterate(run, reference))
                if _now() - loop_start >= seconds:
                    break
            violations = list(observer.violations)
    finally:
        shutil.rmtree(prep.tmp, ignore_errors=True)

    counted = reference if reference is not None else iterations[0]
    counts = counted.counts
    _check(checks, "iterations_repeat", _repeatability(iterations))
    _check(checks, "iteration_checks",
           [p for it in iterations for p in it.problems]
           + (reference.problems if reference is not None else []))
    _check(checks, "queue_conservation", violations)
    hops = counts.get("net.pkt_hops", 0)
    events = counts.get("sim.events", 0)
    _check(checks, "work_counted",
           [] if hops > 0 and events > 0 else ["no packet-hops or events counted"])

    walls = [it.wall_s for it in iterations]
    wall_q1, wall_med, wall_q3 = quartiles(walls)
    setup_q1, setup_med, setup_q3 = quartiles(setup_samples)
    values = {
        "wall_s": wall_med,
        "pkt_hops_per_s": hops / wall_med,
        "events_per_pkt_hop": events / hops if hops else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_med,
    }
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END
    }
    metrics["wall_s"].update(q1=wall_q1, q3=wall_q3, n=len(walls))
    # q1 of the walls gives q3 of the rate and the reverse.
    metrics["pkt_hops_per_s"].update(
        q1=hops / wall_q3, q3=hops / wall_q1, n=len(walls))
    metrics["setup_s"].update(q1=setup_q1, q3=setup_q3, n=len(setup_samples))

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    samples: dict[str, list[float]] = {"wall_s": walls, "setup_s": setup_samples}
    for name in ("cold_s", "warm_s", "resume_s"):
        if name in iterations[0].runner:
            samples[name] = [it.runner[name] for it in iterations]
    spread = (wall_q3 - wall_q1) / wall_med
    return {
        "workload": workload.name,
        "trace": 0,
        "seed": seed,
        "seconds": seconds,
        "workload_digest": prep.digest,
        "iterations": len(iterations),
        "correct": all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "failed_share": _failed_share(failed, attempted),
        "metrics": metrics,
        "samples": samples,
        "noisy": spread > NOISY_SPREAD,
        "wall_spread": spread,
        "counts": counts,
        "sim_fingerprint": {"sha256": iterations[0].fingerprint,
                            "key": iterations[0].key},
        "checks": checks,
        "harness": {
            "warmup_s": warmup_s,
            "import_s": prep.import_s,
            "serial_s": reference.wall_s if reference is not None else None,
            "points": prep.n_points,
        },
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "environment": _environment(),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_traced(workload: Workload, seed: int) -> dict[str, Any]:
    """One untraced then one traced iteration; per-layer metrics.

    Writes the spans to ``bench/out/trace-<workload>.json``.
    """
    prep = prepare(workload)
    checks: list[dict[str, Any]] = []
    pooled = workload.pool_jobs is not None
    try:
        with Observer() as observer:
            run = _Run(prep, seed, observer)
            warm_start = _now()
            run.warm_up()
            warmup_s = _now() - warm_start

            plain = run.serial_pass()
            plain_pool = run.pool_passes(plain.fingerprint) if pooled else None

            profiler = PhaseProfiler()
            tracer = Tracer(profiler)
            observer.tracer = tracer
            traced_start = _now()
            profiler.switch("main")
            try:
                traced = run.serial_pass()
                traced_pool = (
                    run.pool_passes(traced.fingerprint) if pooled else None
                )
            finally:
                profiler.switch(None)
                observer.tracer = None
            traced_wall = _now() - traced_start
            violations = list(observer.violations)
    finally:
        shutil.rmtree(prep.tmp, ignore_errors=True)

    problems = []
    if traced.fingerprint != plain.fingerprint:
        problems.append("traced and untraced sim_fingerprint differ")
    if traced.counts != plain.counts:
        problems.append("traced and untraced counts differ")
    _check(checks, "tracing_does_not_perturb", problems)
    _check(checks, "iteration_checks",
           [p for it in (plain, plain_pool, traced, traced_pool)
            if it is not None for p in it.problems])
    _check(checks, "queue_conservation", violations)

    layers: dict[str, dict[str, float]] = {}
    build_layers = attribute(profiler.stats("build"))
    for part in (attribute(profiler.stats("main")), build_layers):
        for name, row in part.items():
            merge_counts(layers.setdefault(name, {}), row)
    profile_total = sum(row["self_s"] for row in layers.values())
    layer_total = sum(layers.get(name, {}).get("self_s", 0.0) for name in LAYERS)
    # The profiler sees slightly less than the wall it ran in (its own
    # bookkeeping); what no package accounts for stays with the harness.
    _check(checks, "attribution_covers_wall",
           [] if abs(profile_total - traced_wall) <= 0.02 * traced_wall
           else [f"profile total {profile_total:.3f}s vs traced wall "
                 f"{traced_wall:.3f}s"])

    counts = traced.counts
    plain_wall = plain.wall_s + (plain_pool.wall_s if plain_pool else 0.0)
    values: dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
    for name in LAYERS:
        values[f"{name}.self_s"] = layers.get(name, {}).get("self_s", 0.0)
    for name in ("sim", "net", "tcp"):
        values[f"{name}.calls"] = layers.get(name, {}).get("calls", 0)
    values["sim.sched_calls"] = layers.get("sim", {}).get("sched_calls", 0)
    for name, value in counts.items():
        if name in values:
            values[name] = value
    values["sim.events_per_flow"] = _ratio(
        counts.get("sim.events", 0), counts.get("tcp.connections", 0))
    values["sim.ns_per_event"] = 1e9 * _ratio(
        plain.run_s, plain.counts.get("sim.events", 0))
    hops = counts.get("net.pkt_hops", 0)
    drops = counts.get("net.drops", 0)
    values["net.drop_share"] = _ratio(drops, drops + hops)
    values["net.self_us_per_hop"] = 1e6 * _ratio(values["net.self_s"], hops)
    segments = counts.get("tcp.segments_sent", 0)
    values["tcp.retx_share"] = _ratio(counts.get("tcp.retransmits", 0), segments)
    values["tcp.self_us_per_segment"] = 1e6 * _ratio(values["tcp.self_s"], segments)
    values["http.build_self_s"] = build_layers.get("http", {}).get("self_s", 0.0)
    cases = [case for payload in traced.payloads for case in payload
             if hasattr(case, "conns_opened")]
    if cases:  # open-loop payloads carry the pools' tallies
        issued = sum(c.issued for c in cases)
        opened = sum(c.conns_opened for c in cases)
        values["http.requests_offered"] = sum(c.offered for c in cases)
        values["http.requests_completed"] = sum(c.completed for c in cases)
        values["http.conns_opened"] = opened
        values["http.reuse_share"] = 1.0 - _ratio(opened, issued)
    values["experiments.build_s"] = tracer.total("build")
    values["experiments.reduce_s"] = tracer.total("reduce")
    values["experiments.points"] = traced.points
    if plain_pool is not None:
        info = plain_pool.runner
        jobs = workload.pool_jobs
        for name in ("cold_s", "warm_s", "resume_s", "cache_hits", "resumed",
                     "retries", "failures", "journal_bytes"):
            values[f"runner.{name}"] = info[name]
        values["runner.serial_s"] = plain.wall_s
        values["runner.overhead_ms_per_point"] = 1e3 * _ratio(
            info["cold_s"] - plain.wall_s / jobs, prep.n_points)
        values["runner.parallel_efficiency"] = _ratio(
            plain.wall_s, jobs * info["cold_s"])
    values["runner.wait_s"] = layers.get(WAIT, {}).get("self_s", 0.0)
    values["harness.import_s"] = prep.import_s
    values["harness.warmup_s"] = warmup_s
    values["harness.other_self_s"] = traced_wall - layer_total
    values["trace.overhead_x"] = _ratio(traced_wall, plain_wall)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "clock": "host perf_counter seconds",
        "spans": [s.to_json() for s in tracer.spans],
        "span_self_s": tracer.self_times(),
    }))

    attempted = traced.attempted
    return {
        "workload": workload.name,
        "trace": 1,
        "seed": seed,
        "workload_digest": prep.digest,
        "correct": all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": traced.failed,
        "failed_share": _failed_share(traced.failed, attempted),
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER
        },
        "layer_share": {
            name: _ratio(values[f"{name}.self_s"], traced_wall) for name in LAYERS
        },
        "buckets": {name: row["self_s"] for name, row in sorted(layers.items())},
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "profile_total_s": profile_total,
        "counts": counts,
        "sim_fingerprint": {"sha256": traced.fingerprint, "key": traced.key},
        "checks": checks,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
