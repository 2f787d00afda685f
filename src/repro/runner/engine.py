"""The sweep-execution engine.

:class:`SweepRunner` takes ``(experiment, params)`` tasks, enumerates
their :class:`~repro.experiments.base.Point` lists, and resolves every
point — from the cache when possible, otherwise on a pluggable
:class:`~repro.runner.backends.SweepBackend` (inline, process pool, or
dispatch fleet) — then folds the per-point results back through each
experiment's ``reduce``.

Determinism contract: each point's seed is derived from the root seed
and the point's ``"<experiment id>/<label>"`` name alone
(:func:`repro.sim.randomness.derive_seed`), and results are collected
by point index rather than completion or submission order.  A sweep
therefore produces bit-identical payloads for any worker count and any
backend, and protocol variants of the same experiment see matched
per-point draws (the same scenario randomness under every protocol, as
the paper's comparisons require).

Scheduling contract: points are submitted in enumeration order, and
the runner keeps no history between sweeps.  Because merge is by point
index, the order in which a backend completes them never changes
payloads.

Failure contract: backends *detect* and *report* — a failed attempt is
an exception on its future, naming the worker and host when the backend
has them — and one loop, :meth:`SweepRunner._drain`, *decides*, for
every backend, by the one :class:`~repro.runner.dispatch.retry.RetryPolicy`:
*transient* faults (worker crashes, broken pools, lost or expired
leases) are resubmitted against a separate, more generous budget than
the point's own ``max_attempts``; *timeouts* trigger speculative
resubmission (the straggler keeps running, and whichever
earliest-submitted attempt completes successfully wins, so the outcome
does not depend on the race); *deterministic* errors are resubmitted
until ``max_attempts`` executions are spent — unless two distinct
workers report the same failure signature, which is proof enough: the
point is *quarantined*, its evidence (both tracebacks) appended to the
backend's ``repro-quarantine/1`` journal.  A point that exhausts its
budgets degrades to a ``None`` result; ``reduce`` receives the partial
result set and the failures — with their classification — are recorded
on :attr:`SweepRunner.last_stats`, split into
:attr:`SweepStats.timeouts` and :attr:`SweepStats.errors`.  Extra
completed successes are counted in :attr:`SweepStats.duplicate_results`.

Crash contract: give the runner a
:class:`~repro.runner.checkpoint.SweepCheckpoint` and every completed
point is journalled durably (flush + fsync) the moment it lands; after
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

import concurrent.futures
import json
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.runner.backends import (
    PointSpec,
    ProcessPoolBackend,
    SerialBackend,
    SweepBackend,
    create_backend,
)
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import SweepCheckpoint, digest_params
from repro.runner.dispatch.retry import (
    DETERMINISTIC,
    TIMEOUT,
    TRANSIENT,
    RemoteError,
    RetryPolicy,
    classify_failure,
    failure_signature,
)
from repro.runner.progress import ProgressReporter
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
    ``"transient"`` (every attempt lost its worker), ``"quarantined"``
    (two distinct workers reported the same failure signature), or
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
    #: kind: deterministic exceptions, exhausted transient budgets,
    #: quarantines).
    errors: int = 0
    #: retries caused by environmental faults — worker crashes, broken
    #: pools, lease expiries — which never consume a point's own
    #: attempt budget.
    transient_retries: int = 0
    #: points quarantined (same failure signature from two distinct
    #: workers); always ⊆ ``errors``.
    quarantined: int = 0
    #: dispatch leases forfeited because a worker stopped heartbeating.
    lease_expirations: int = 0


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
    """One point's dispatch record inside a run."""

    __slots__ = (
        "task_index", "point_index", "experiment", "params", "point",
        "seed", "cache_key", "params_digest",
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


def _agreed_failures(evidence: "list[RemoteError]") -> "list[RemoteError]":
    """The failures sharing one signature across two distinct workers
    (the quarantine rule), or an empty list."""
    for exc in evidence:
        same = [other for other in evidence if str(other) == str(exc)]
        if len({other.worker for other in same}) >= 2:
            return same
    return []


class SweepRunner:
    """Fan independent sweep points out to a backend, cached and seeded.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs points inline in this
        process — bit-identical to any parallel run, and the mode to
        use under a debugger.
    cache:
        A :class:`~repro.runner.cache.ResultCache`, or None to disable
        caching.  Only successful results are cached; a re-run of an
        unchanged (version, params, point, seed) tuple is free.
    timeout:
        Seconds to wait for one point's result before retrying/failing
        it, or None to wait forever.  A number must be ``> 0`` and at
        most :data:`threading.TIMEOUT_MAX` (NaN and inf are rejected).
        Enforced on pool and dispatch backends alike (an inline point
        cannot be preempted).
    retry_policy:
        The :class:`~repro.runner.dispatch.retry.RetryPolicy` — a
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
        The execution seam: a backend name (``"serial"``,
        ``"process"``, ``"dispatch"``), a
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
        process or dispatch worker is sent — and is checked here, before
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

    def _resolve_backend(self, n_pending: int) -> SweepBackend:
        if self.backend is not None:
            return self.backend
        if self.jobs == 1 or n_pending == 1:
            return SerialBackend()
        return ProcessPoolBackend()

    # ------------------------------------------------------------------
    # Resolution paths
    # ------------------------------------------------------------------
    def _journal(self, entry: _Entry, value: Any) -> None:
        if self.checkpoint is not None and value is not None:
            self.checkpoint.record(
                entry.experiment.id, entry.point.label, entry.seed, value,
                params_digest=entry.params_digest,
            )

    def _record(
        self,
        entry: _Entry,
        value: Any,
        results: list[list[Any]],
        stats: SweepStats,
    ) -> None:
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

    def _fail(
        self,
        entry: _Entry,
        error: str,
        attempts: int,
        stats: SweepStats,
        kind: str = DETERMINISTIC,
    ) -> None:
        stats.failures.append(
            PointFailure(
                entry.experiment.id, entry.point.label, error, attempts, kind
            )
        )
        if kind == TIMEOUT:
            stats.timeouts += 1
        else:
            stats.errors += 1
        self._point_done(entry, failed=True, kind=kind)

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

    def _quarantine(
        self,
        entry: _Entry,
        agreed: "list[RemoteError]",
        attempts: int,
        backend: SweepBackend,
        stats: SweepStats,
    ) -> None:
        """Two distinct workers agree the failure is the point's own:
        append the evidence to the backend's quarantine journal and
        fail the point without spending the rest of its budget."""
        signature = str(agreed[0])
        path = Path(getattr(backend, "quarantine_path", "quarantine.jsonl"))
        record = {
            "schema": "repro-quarantine/1",
            "experiment": entry.experiment.id,
            "label": entry.point.label,
            "seed": entry.seed,
            "params_digest": entry.params_digest,
            "signature": signature,
            "workers": sorted({str(exc.worker) for exc in agreed}),
            "executions": attempts,
            "failures": [
                {
                    "worker": exc.worker,
                    "host": exc.host,
                    "error_type": exc.error_type,
                    "error": exc.error,
                    "traceback": exc.traceback,
                }
                for exc in agreed
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        stats.quarantined += 1
        self._fail(entry, signature, attempts, stats, kind="quarantined")

    def _merge_backend_stats(
        self, backend: SweepBackend, stats: SweepStats
    ) -> None:
        """Fold a backend's fleet counters into the sweep stats."""
        collect = getattr(backend, "collect_stats", None)
        if not callable(collect):
            return
        collected = collect()
        stats.lease_expirations += int(collected.get("lease_expirations", 0))
        stats.duplicate_results += int(collected.get("duplicate_results", 0))

    def _dispatch(
        self,
        pending: list[_Entry],
        results: list[list[Any]],
        stats: SweepStats,
    ) -> None:
        """Execute every pending entry on the backend, in order."""
        backend = self._resolve_backend(len(pending))
        stats.backend = backend.name
        # Open before the header write: a dispatch backend only knows
        # its worker roster once the fleet is up, and the journal header
        # should name the fleet that wrote the records after it.
        backend.open(min(self.jobs, len(pending)))
        finished = False
        try:
            if self.checkpoint is not None:
                self.checkpoint.write_header(
                    backend=backend.name,
                    jobs=self.jobs,
                    workers=getattr(backend, "worker_roster", ()),
                )
            self._drain(backend, pending, results, stats)
            finished = True
        finally:
            # Every exit releases the workers.  An interrupt or an error
            # (a journal write hitting a full disk, say) must not block
            # on stragglers: drop queued work and leave without waiting
            # for running futures.  Stats merge after the close so they
            # include what the fleet counted while shutting down.
            backend.close(wait=finished, cancel_futures=not finished)
            self._merge_backend_stats(backend, stats)

    def _drain(
        self,
        backend: SweepBackend,
        pending: list[_Entry],
        results: list[list[Any]],
        stats: SweepStats,
    ) -> None:
        """The one attempt loop: every retry, timeout and straggler
        decision for every backend is made here."""
        #: (entry, future) pairs still in flight after their entry was
        #: already decided — stragglers whose eventual successes are
        #: counted as duplicates, never recorded.
        leftovers: list[tuple[_Entry, concurrent.futures.Future]] = []
        # All attempts for an entry, in submission order.  The list
        # only grows (stragglers are never discarded), so "earliest
        # successful submission" is a deterministic choice however
        # the straggler/retry race resolves.  A pool gets every first
        # attempt up front; an inline backend executes during submit,
        # so its first attempt waits until the loop reaches the entry
        # and each result is journalled before the next point starts.
        futures: dict[int, list[concurrent.futures.Future]] = {
            id(entry): [] if backend.inline else [backend.submit(entry.spec())]
            for entry in pending
        }
        policy = self.retry_policy
        for entry in pending:
            attempts = futures[id(entry)]
            if not attempts:
                # KeyboardInterrupt propagates out of an inline submit:
                # completed points are already durable, the rest never
                # started.
                attempts.append(backend.submit(entry.spec()))
            #: futures whose failure has already been classified —
            #: each failed attempt must be charged to a budget
            #: exactly once, however many drain iterations see it.
            counted: set[int] = set()
            last_error: Optional[str] = None
            last_kind: str = DETERMINISTIC
            transient_used = 0
            #: the point's own failures that named their worker.
            evidence: list[RemoteError] = []
            while True:
                # Wait only on attempts not yet finished — waiting on
                # the full list would return immediately forever once
                # one attempt has failed.
                unfinished = [f for f in attempts if not f.done()]
                progressed = False
                if unfinished:
                    done_now = backend.drain(unfinished, timeout=self.timeout)
                    progressed = bool(done_now)
                winner = None
                transient_new = 0
                failed_new = 0
                for future in attempts:  # submission order
                    if not future.done() or future.cancelled():
                        continue
                    exc = future.exception()
                    if exc is None:
                        if winner is None:
                            winner = future
                        else:
                            stats.duplicate_results += 1
                        continue
                    if id(future) in counted:
                        continue
                    counted.add(id(future))
                    last_error = failure_signature(exc)
                    last_kind = classify_failure(exc)
                    if last_kind == TRANSIENT:
                        transient_new += 1
                        continue
                    failed_new += 1
                    if isinstance(exc, RemoteError) and exc.worker is not None:
                        evidence.append(exc)
                if winner is not None:
                    self._record(entry, winner.result(), results, stats)
                    leftovers.extend(
                        (entry, future) for future in attempts
                        if not future.done()
                    )
                    break
                agreed = _agreed_failures(evidence)
                if agreed:
                    for future in attempts:
                        future.cancel()
                    self._quarantine(
                        entry, agreed, len(attempts), backend, stats
                    )
                    break
                timed_out = bool(unfinished) and not progressed
                if timed_out:
                    last_error = f"timed out after {self.timeout}s"
                    last_kind = TIMEOUT
                resubmit = False
                if transient_new and policy.allows_transient(transient_used):
                    # Environmental faults (worker death, broken
                    # pool) draw on the transient budget, never the
                    # point's own attempts.
                    transient_used += 1
                    stats.transient_retries += 1
                    resubmit = True
                elif failed_new or timed_out:
                    # Attempts charged against the point's own
                    # budget exclude the transient ones above.
                    budget_used = len(attempts) - transient_used
                    resubmit = policy.allows(budget_used + 1)
                if resubmit:
                    try:
                        attempts.append(backend.submit(entry.spec()))
                    except Exception as exc:  # pool broken beyond repair
                        self._fail(
                            entry,
                            f"retry submission failed: "
                            f"{type(exc).__name__}: {exc}",
                            len(attempts),
                            stats,
                        )
                        break
                    continue
                still_running = [f for f in attempts if not f.done()]
                if still_running and not timed_out:
                    # Submissions exhausted; an attempt just failed
                    # but stragglers remain in flight.  Grant them
                    # another timeout window — a late success still
                    # wins over a recorded failure.
                    continue
                for future in still_running:
                    future.cancel()
                self._fail(entry, last_error or "no result",
                           len(attempts), stats, kind=last_kind)
                break
        if leftovers:
            # The backend shutdown waits for these anyway; count the
            # straggler successes the race would have discarded.
            concurrent.futures.wait([future for _, future in leftovers])
            for _, future in leftovers:
                if (future.done() and not future.cancelled()
                        and future.exception() is None):
                    stats.duplicate_results += 1
