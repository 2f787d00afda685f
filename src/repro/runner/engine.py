"""The sweep-execution engine.

:class:`SweepRunner` takes ``(experiment, params)`` tasks, enumerates
their :class:`~repro.experiments.base.Point` lists, and resolves every
point — from the cache when possible, otherwise on a pluggable
:class:`~repro.runner.backends.SweepBackend` (inline or process pool) —
then folds the per-point results back through each experiment's
``reduce``.

Determinism contract: each point's seed is derived from the root seed
and the point's ``"<experiment id>/<label>"`` name alone
(:func:`repro.sim.randomness.derive_seed`), and results are collected
by point index rather than completion or submission order.  A sweep
therefore produces bit-identical payloads for any worker count and any
backend, and protocol variants of the same experiment see matched
per-point draws (the same scenario randomness under every protocol, as
the paper's comparisons require).

Scheduling contract: points are submitted lazily, in enumeration
order, with at most ``jobs`` attempts in flight (one on an inline
backend), stragglers included; a retry goes in as soon as a worker is
free, ahead of every point not yet submitted.  An attempt's timeout
counts from its submission, which the in-flight limit makes its start
(the first ``jobs`` also pay the worker spawn).  Decided points are
recorded — cache, journal, progress — in enumeration order and merged
by point index, so completion order changes neither payloads nor
journals.  The runner keeps no history between sweeps.

Failure contract: backends *detect* and *report* — a failed attempt is
an exception on its future — and one loop, :meth:`SweepRunner._drain`,
waiting on every attempt in flight, *decides* for every backend by the
one :class:`~repro.runner.retry.RetryPolicy`: *transient* faults (a
worker that died mid-point, a broken pool) are resubmitted against a
separate, more generous budget than the point's own ``max_attempts``,
one attempt at a time until an attempt succeeds, then ``jobs`` at a
time again (so a point caught in a pool beside a worker-killer is
charged about once, not once per kill); *timeouts* trigger speculative
resubmission (the straggler keeps running; the first success wins,
and every attempt returns the same value);
*deterministic* errors are resubmitted until ``max_attempts``
executions are spent.  A point that exhausts its budgets degrades to a
``None`` result; ``reduce`` receives the partial result set and the
failures — with their classification — are recorded on
:attr:`SweepRunner.last_stats`, split into :attr:`SweepStats.timeouts`
and :attr:`SweepStats.errors`.  Extra completed successes are counted
in :attr:`SweepStats.duplicate_results`.

Crash contract: give the runner a
:class:`~repro.runner.checkpoint.SweepCheckpoint` and every completed
point is journalled durably (flush + fsync) as it is recorded; after
a crash — including ``kill -9`` mid-sweep — re-running with
``resume=True`` replays the journalled points for free and executes
only the unfinished remainder, producing payloads identical to an
uninterrupted run.  The journal records which backend wrote it, but
resume accepts any backend: a sweep killed under ``process`` can finish
under ``serial``.  ``KeyboardInterrupt`` is handled the same way but
gracefully: completed points are already on disk, and the runner raises
:class:`SweepInterrupted` carrying the partial payloads and stats so
callers can report before exiting non-zero.
"""

from __future__ import annotations

import heapq
import math
import pickle
import threading
import time
import warnings
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.runner.backends import create_backend
from repro.runner.backends.base import PointSpec, SweepBackend
from repro.runner.backends.serial import SerialBackend
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import SweepCheckpoint, digest_params
from repro.runner.progress import ProgressReporter
from repro.runner.retry import (
    DETERMINISTIC,
    TIMEOUT,
    TRANSIENT,
    RetryPolicy,
    classify_failure,
    failure_signature,
)
from repro.sim.randomness import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import Experiment, Point

__all__ = [
    "PointFailure",
    "SweepInterrupted",
    "SweepRunner",
    "SweepStats",
]


@dataclass
class PointFailure:
    """A point that produced no result after all attempts.

    ``kind`` is the final failure's classification: ``"timeout"``,
    ``"transient"`` (every attempt lost its worker), or
    ``"deterministic"`` (the point's own exception).
    """

    experiment_id: str
    label: str
    error: str
    attempts: int
    kind: str = DETERMINISTIC


@dataclass
class SweepStats:
    """Bookkeeping for the last :meth:`SweepRunner.run_many` call."""

    total_points: int = 0
    executed: int = 0
    cache_hits: int = 0
    #: cache entries found corrupt during this sweep's lookups; each
    #: was discarded and re-executed.  Nonzero means the cache directory
    #: is damaged — distinguishable from an ordinary cold-cache miss.
    cache_corrupt: int = 0
    #: results that executed fine but could not be written back to the
    #: cache (full disk, permissions).  The sweep's payload is intact;
    #: only future reuse is lost.
    cache_write_errors: int = 0
    #: points replayed from the checkpoint journal instead of executed.
    resumed: int = 0
    #: straggler results that completed after another attempt for the
    #: same point had already won (kept-first determinism; see the
    #: failure contract in the module docstring).
    duplicate_results: int = 0
    #: True when the sweep was cut short by KeyboardInterrupt; the
    #: payloads reduce whatever completed before the interrupt.
    interrupted: bool = False
    #: name of the backend that executed the dispatched points ("" when
    #: everything resolved from the cache/journal).
    backend: str = ""
    failures: list[PointFailure] = field(default_factory=list)
    elapsed: float = 0.0
    #: points that ultimately failed by timing out.
    timeouts: int = 0
    #: points that ultimately failed with an error (any non-timeout
    #: kind: deterministic exceptions, exhausted transient budgets).
    errors: int = 0
    #: retries caused by environmental faults — a worker that died
    #: mid-point, a broken pool — which never consume a point's own
    #: attempt budget.
    transient_retries: int = 0


class SweepInterrupted(KeyboardInterrupt):
    """A sweep stopped early on Ctrl-C, carrying its partial outcome.

    Subclasses :class:`KeyboardInterrupt` so naive callers still unwind
    as an interrupt; careful callers catch this first and read
    :attr:`payloads` (one reduced payload per task, built from the
    points that finished) and :attr:`stats` before exiting non-zero.
    """

    def __init__(self, payloads: list[Any], stats: SweepStats) -> None:
        super().__init__("sweep interrupted")
        self.payloads = payloads
        self.stats = stats


class _Entry:
    """One point's dispatch record inside a run, and the attempt state
    :meth:`SweepRunner._drain` keeps for it."""

    __slots__ = (
        "task_index", "point_index", "experiment", "params", "point",
        "seed", "cache_key", "params_digest", "position", "attempts",
        "submitted", "transient_used", "live", "error", "kind", "decided",
        "value",
    )

    def __init__(
        self,
        task_index: int,
        point_index: int,
        experiment: Experiment,
        params: Any,
        point: Point,
        seed: int,
        params_digest: str = "",
    ) -> None:
        self.task_index = task_index
        self.point_index = point_index
        self.experiment = experiment
        self.params = params
        self.point = point
        self.seed = seed
        self.cache_key: Optional[str] = None
        #: folded into the journal key: protocol variants of one
        #: experiment share labels *and* per-point seeds by design.
        self.params_digest = params_digest
        #: the entry's index among the sweep's executed entries.
        self.position = 0
        #: executions granted (the first included) and submitted; the
        #: difference waits in ``_drain``'s ready heap.
        self.attempts, self.submitted = 1, 0
        #: retries granted from the transient budget.
        self.transient_used = 0
        #: attempts in flight whose timeout has not passed.
        self.live = 0
        self.error, self.kind = "", DETERMINISTIC
        #: None while undecided, True once an attempt succeeded (its
        #: value waits here to be recorded in order), False once failed.
        self.decided: Optional[bool] = None
        self.value: Any = None

    @property
    def journal_key(self) -> tuple[str, str, int, str]:
        return (self.experiment.id, self.point.label, self.seed,
                self.params_digest)

    def spec(self) -> PointSpec:
        return PointSpec(
            experiment=self.experiment,
            experiment_id=self.experiment.id,
            params=self.params,
            point=self.point,
            seed=self.seed,
            params_digest=self.params_digest,
        )


class SweepRunner:
    """Fan independent sweep points out to a backend, cached and seeded.

    Parameters
    ----------
    jobs:
        Attempts in flight at once: the pool's worker count.  ``1``
        (default) without a ``backend`` runs points inline in this
        process — bit-identical to any parallel run, and the mode to
        use under a debugger; ``backend="process"`` with ``jobs=1`` is
        a one-worker pool.
    cache:
        A :class:`~repro.runner.cache.ResultCache`, or None to disable
        caching.  Only successful results are cached; a re-run of an
        unchanged (version, params, point, seed) tuple is free.
    timeout:
        Seconds one attempt may run, from its submission, before the
        point is retried or fails, or None to wait forever.  A number
        must be ``> 0`` and at most :data:`threading.TIMEOUT_MAX` (NaN
        and inf are rejected).  Enforced on a pool (an inline point
        cannot be preempted).
    retry_policy:
        The :class:`~repro.runner.retry.RetryPolicy` — a
        point's own attempt budget and the separate transient budget.
        None is the default policy: two executions per point.
    progress:
        True to print per-point progress/ETA lines to stderr, or a
        :class:`~repro.runner.progress.ProgressReporter` to customize.
    checkpoint:
        A :class:`~repro.runner.checkpoint.SweepCheckpoint` journalling
        every completed point durably, or None to disable.  Without
        ``resume`` the journal is truncated at the start of each run.
    resume:
        Replay points already in the checkpoint journal instead of
        executing them (requires ``checkpoint``).
    backend:
        The execution seam: a backend name (``"serial"`` or
        ``"process"``), a
        :class:`~repro.runner.backends.SweepBackend` instance, or None
        to pick automatically (serial under ``jobs=1``, process pool
        otherwise).  ``"serial"`` ignores ``jobs``.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        progress: Any = False,
        label: str = "sweep",
        checkpoint: Optional[SweepCheckpoint] = None,
        resume: bool = False,
        backend: "str | SweepBackend | None" = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        # Written so NaN fails too; past TIMEOUT_MAX the waits overflow.
        if timeout is not None and not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be > 0 and at most {threading.TIMEOUT_MAX:.0f}"
                f" seconds, not {timeout!r}"
            )
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint")
        self.jobs = int(jobs)
        self.cache = cache
        self.timeout = timeout
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        if isinstance(progress, ProgressReporter):
            self._reporter: Optional[ProgressReporter] = progress
        elif progress:
            self._reporter = ProgressReporter(label)
        else:
            self._reporter = None
        self.checkpoint = checkpoint
        self.resume = bool(resume)
        if isinstance(backend, str):
            backend = create_backend(backend)
        if backend is not None and not isinstance(backend, SweepBackend):
            raise TypeError(
                "backend must be a SweepBackend instance, a backend name, "
                f"or None, not {type(backend).__name__}"
            )
        #: the declared backend; None means auto (serial under jobs=1,
        #: process pool otherwise, inline shortcut for 1-point batches).
        self.backend = backend
        self.last_stats: Optional[SweepStats] = None
        #: set after the first run_many touches the journal, so an
        #: ``all``-style sequence of calls shares one journal (only the
        #: first non-resume call truncates it).
        self._checkpoint_used = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, experiment: Any, params: Any, *, seed: int = 0) -> Any:
        """Run one experiment's sweep and return its reduced payload.

        Exactly a one-task :meth:`run_many`: both paths normalize
        points, schedule, and dispatch through the same backend code.
        """
        return self.run_many([(experiment, params)], seed=seed)[0]

    def run_many(
        self, tasks: Sequence[tuple[Any, Any]], *, seed: int = 0
    ) -> list[Any]:
        """Run several sweeps as one flat dispatch; payloads in order.

        Points from every task share the worker pool, so e.g. the
        protocols of one figure (or several figures of an ``all`` run)
        parallelize against each other, not just within a sweep.
        """
        started = time.perf_counter()
        stats = SweepStats()
        all_points: list[list[Any]] = []
        results: list[list[Any]] = []
        entries: list[_Entry] = []
        need_digest = self.checkpoint is not None or self.cache is not None
        for task_index, (experiment, params) in enumerate(tasks):
            points = self._normalize_points(experiment, params)
            all_points.append(points)
            results.append([None] * len(points))
            digest = digest_params(params) if need_digest else ""
            for point_index, point in enumerate(points):
                point_seed = derive_seed(seed, f"{experiment.id}/{point.label}")
                entries.append(
                    _Entry(task_index, point_index, experiment, params,
                           point, point_seed, digest)
                )
        stats.total_points = len(entries)
        if self._reporter is not None:
            self._reporter.start(len(entries))

        journalled: dict[tuple[str, str, int, str], Any] = {}
        if self.checkpoint is not None:
            if self.resume or self._checkpoint_used:
                journalled = self.checkpoint.load()
            else:
                # A fresh sweep must not inherit another run's records.
                self.checkpoint.reset()
            self._checkpoint_used = True

        pending: list[_Entry] = []
        corrupt_before = self.cache.corrupt if self.cache is not None else 0
        for entry in entries:
            if journalled and entry.journal_key in journalled:
                value = journalled[entry.journal_key]
                results[entry.task_index][entry.point_index] = value
                stats.resumed += 1
                self._point_done(entry, cached=True)
                continue
            if self.cache is not None:
                entry.cache_key = self.cache.key(
                    entry.experiment.id, entry.params, entry.point, entry.seed
                )
                hit = self.cache.get(entry.cache_key)
                if hit is not None:
                    results[entry.task_index][entry.point_index] = hit
                    stats.cache_hits += 1
                    # A cache hit still lands in the journal: a later
                    # --resume must not depend on the shared cache
                    # retaining the entry.
                    self._journal(entry, hit)
                    self._point_done(entry, cached=True)
                    continue
            pending.append(entry)
        if self.cache is not None:
            stats.cache_corrupt = self.cache.corrupt - corrupt_before

        interrupted = False
        if pending:
            try:
                self._dispatch(pending, results, stats)
            except KeyboardInterrupt:
                interrupted = True

        stats.elapsed = time.perf_counter() - started
        stats.interrupted = interrupted
        if self._reporter is not None:
            self._reporter.finish()
        self.last_stats = stats
        if stats.failures and not interrupted:
            warnings.warn(
                f"{len(stats.failures)} sweep point(s) failed; "
                "payloads reduce a partial result set",
                RuntimeWarning,
                stacklevel=2,
            )
        payloads: list[Any] = []
        for (experiment, params), points, task_results in zip(
            tasks, all_points, results
        ):
            if interrupted:
                # Best-effort partials: a reduce written for complete
                # sweeps may choke on the holes; the journal already
                # holds everything needed to resume either way.
                try:
                    payloads.append(experiment.reduce(params, points, task_results))
                except Exception as exc:  # noqa: BLE001
                    warnings.warn(
                        f"{experiment.id}: reduce failed on the partial "
                        f"result set ({type(exc).__name__}: {exc}); "
                        "payload replaced with None",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    payloads.append(None)
            else:
                payloads.append(experiment.reduce(params, points, task_results))
        if interrupted:
            raise SweepInterrupted(payloads, stats)
        return payloads

    # ------------------------------------------------------------------
    # Normalization and backend choice
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_points(experiment: Any, params: Any) -> list[Any]:
        """Enumerate and validate one task's points (shared by run and
        run_many — there is exactly one normalization path).

        Every point's ``(params, point)`` must pickle — exactly what a
        pool worker is sent — and is checked here, before
        any point executes, so every backend (serial included) rejects
        an unpicklable payload the same way.  The experiment object is
        not pickled: workers resolve it by id.
        """
        points = list(experiment.points(params))
        labels = [p.label for p in points]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"{experiment.id}: duplicate point labels in sweep"
            )
        for point in points:
            try:
                pickle.dumps((params, point))
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                raise TypeError(
                    f"{experiment.id}/{point.label}: point cannot be sent to "
                    f"a worker ({type(exc).__name__}: {exc})"
                ) from exc
        return points

    # ------------------------------------------------------------------
    # Resolution paths
    # ------------------------------------------------------------------
    def _journal(self, entry: _Entry, value: Any) -> None:
        if self.checkpoint is not None and value is not None:
            self.checkpoint.record(
                entry.experiment.id, entry.point.label, entry.seed, value,
                params_digest=entry.params_digest,
            )

    def _point_done(
        self,
        entry: _Entry,
        cached: bool = False,
        failed: bool = False,
        kind: str = "",
    ) -> None:
        if self._reporter is not None:
            self._reporter.point_done(
                entry.point.label, cached=cached, failed=failed, kind=kind
            )

    def _dispatch(
        self,
        pending: list[_Entry],
        results: list[list[Any]],
        stats: SweepStats,
    ) -> None:
        """Execute every pending entry on the backend."""
        backend = self.backend
        if backend is None:  # auto: inline unless there is work to share
            backend = (SerialBackend() if self.jobs == 1 or len(pending) == 1
                       else create_backend("process"))
        stats.backend = backend.name
        backend.open(min(self.jobs, len(pending)))
        finished = False
        try:
            if self.checkpoint is not None:
                self.checkpoint.write_header(
                    backend=backend.name, jobs=self.jobs
                )
            self._drain(backend, pending, results, stats)
            finished = True
        finally:
            # Every exit releases the workers.  An interrupt or an error
            # (a journal write hitting a full disk, say) must not block
            # on stragglers: drop queued work and leave without waiting
            # for running futures.
            backend.close(wait=finished, cancel_futures=not finished)

    def _drain(
        self,
        backend: SweepBackend,
        pending: list[_Entry],
        results: list[list[Any]],
        stats: SweepStats,
    ) -> None:
        """The one attempt loop: every retry, timeout and straggler
        decision for every backend is made here, over every attempt in
        flight at once (the module docstring has the contracts)."""
        policy = self.retry_policy
        timeout = self.timeout or math.inf
        full = 1 if backend.inline else min(self.jobs, len(pending))
        width = full
        for position, entry in enumerate(pending):
            entry.position = position
        #: a heap of the positions owed a submission.
        ready = list(range(len(pending)))
        #: attempt -> (its entry, its deadline), in submission order; the
        #: deadline is None once the attempt has timed out.
        in_flight: dict[Future, tuple[_Entry, Optional[float]]] = {}
        cursor = 0

        def charge(entry: _Entry, kind: str, error: str) -> None:
            """Grant an undecided entry a retry for one failed or overdue
            attempt, or fail it once it has nothing left to wait for."""
            entry.error, entry.kind = error, kind
            if kind == TRANSIENT:
                # Environmental faults draw on the transient budget,
                # never the point's own attempts.
                granted = policy.allows_transient(entry.transient_used)
                if granted:
                    entry.transient_used += 1
                    stats.transient_retries += 1
            else:
                granted = policy.allows(entry.attempts - entry.transient_used + 1)
            if granted:
                entry.attempts += 1
                heapq.heappush(ready, entry.position)
            elif not entry.live and entry.attempts == entry.submitted:
                entry.decided = False

        while True:
            if backend.inline:
                # An inline submit runs the point: record the last one
                # before the next starts.
                cursor = self._settle(pending, cursor, results, stats)
            while ready and len(in_flight) < width:
                entry = pending[heapq.heappop(ready)]
                if entry.decided is not None:
                    continue
                try:
                    future = backend.submit(entry.spec())
                except Exception as exc:  # pool broken beyond repair
                    retry = "retry " if entry.submitted else ""
                    entry.error = (f"{retry}submission failed: "
                                   f"{type(exc).__name__}: {exc}")
                    entry.kind = classify_failure(exc)
                    entry.decided = False
                    continue
                entry.submitted += 1
                entry.live += 1
                in_flight[future] = (entry, time.monotonic() + timeout)
            # A pool's workers already run the next attempts while these
            # results go to the cache and the journal.
            cursor = self._settle(pending, cursor, results, stats)
            if not in_flight:
                return
            earliest = min((d for _, d in in_flight.values() if d is not None),
                           default=math.inf)
            done = backend.drain(
                in_flight, timeout=None if earliest == math.inf
                else max(0.0, earliest - time.monotonic()),
            )
            for future in [f for f in in_flight if f in done]:
                entry, deadline = in_flight.pop(future)
                exc = future.exception()
                if exc is None:
                    width = full
                    if entry.decided is None:
                        entry.decided, entry.value = True, future.result()
                    elif entry.decided:
                        stats.duplicate_results += 1
                    continue
                kind = classify_failure(exc)
                if kind == TRANSIENT:
                    # The dead pool's casualties go back one at a time
                    # until an attempt succeeds.
                    width = 1
                if deadline is not None:
                    entry.live -= 1
                    if entry.decided is None:
                        charge(entry, kind, failure_signature(exc))
            now = time.monotonic()
            for future, (entry, deadline) in list(in_flight.items()):
                if deadline is not None and deadline <= now and not future.done():
                    # Overdue: the straggler runs on, and a success from
                    # it still decides the entry.
                    in_flight[future] = (entry, None)
                    entry.live -= 1
                    if entry.decided is None:
                        charge(entry, TIMEOUT, f"timed out after {self.timeout}s")

    def _settle(
        self,
        pending: list[_Entry],
        cursor: int,
        results: list[list[Any]],
        stats: SweepStats,
    ) -> int:
        """Record the decided entries from ``cursor`` on, in enumeration
        order, up to the first undecided one; return the new cursor."""
        while cursor < len(pending) and pending[cursor].decided is not None:
            entry = pending[cursor]
            cursor += 1
            if not entry.decided:
                stats.failures.append(PointFailure(
                    entry.experiment.id, entry.point.label, entry.error,
                    entry.submitted, entry.kind,
                ))
                if entry.kind == TIMEOUT:
                    stats.timeouts += 1
                else:
                    stats.errors += 1
                self._point_done(entry, failed=True, kind=entry.kind)
                continue
            value, entry.value = entry.value, None
            results[entry.task_index][entry.point_index] = value
            stats.executed += 1
            if (self.cache is not None and entry.cache_key is not None
                    and value is not None):
                try:
                    self.cache.put(entry.cache_key, value)
                except (OSError, pickle.PicklingError) as exc:
                    # The point already ran; losing the cache write only
                    # costs a future re-execution.  Say so once per
                    # point instead of failing the sweep or going quiet.
                    stats.cache_write_errors += 1
                    warnings.warn(
                        f"cache write failed for {entry.experiment.id}/"
                        f"{entry.point.label} ({type(exc).__name__}: {exc})",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            self._journal(entry, value)
            self._point_done(entry)
        return cursor
