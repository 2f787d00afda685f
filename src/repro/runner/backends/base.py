"""The :class:`SweepBackend` protocol and shared point execution.

A backend is the execution seam of :class:`~repro.runner.engine.SweepRunner`:
the runner decides *what* to run (entries, seeds, retries, journalling,
merge order) and the backend decides *where and how* one point executes
(inline, on a process pool, on a dispatch fleet).  A backend never
retries: each submission executes at most once and its failure is
*reported* as the future's exception — carrying ``worker`` / ``host``
attributes when the backend knows who ran it
(:mod:`repro.runner.dispatch.retry`) — for the runner to act on.  The
contract is deliberately small:

``open(max_workers)``
    Acquire workers.  Called once per dispatch; a backend instance may
    be reopened for the next dispatch after ``close()``.
``submit(spec) -> Future``
    Schedule one :class:`PointSpec`.  The returned future — any object
    satisfying the :class:`concurrent.futures.Future` interface —
    resolves to the point's value.  Inline backends (``inline = True``)
    execute *during* ``submit`` and return an already-completed future;
    the runner then submits lazily, one point at a time, so each result
    is journalled before the next point starts.
``drain(futures, timeout) -> done``
    Block until at least one of ``futures`` completes (or ``timeout``
    elapses); return the completed subset.  The default wraps
    :func:`concurrent.futures.wait`.
``close(wait, cancel_futures)``
    Release workers.  ``cancel_futures`` drops queued work on
    interrupt.

One capability flag lets the runner reason about a backend without
isinstance checks: ``inline`` (executes in-process at submit time).

Whatever the backend, the runner's determinism contract holds: results
are merged by point index with earliest-submitted-success semantics, so
every backend produces byte-identical payloads for the same
seed/params.
"""

from __future__ import annotations

import abc
import concurrent.futures
import os
from dataclasses import dataclass
from typing import Any, Iterable, Optional

__all__ = [
    "PointSpec",
    "SweepBackend",
    "execute_point",
    "resolve_experiment",
]


@dataclass
class PointSpec:
    """Everything a backend needs to execute one sweep point.

    ``experiment`` is the live object (inline backends call it
    directly, so experiments never need to be registered for serial
    runs); ``experiment_id`` is what crosses a process boundary —
    either a registry id or a ``"module:attribute"`` path resolvable by
    :func:`resolve_experiment`.
    """

    experiment: Any
    experiment_id: str
    params: Any
    point: Any
    seed: int
    params_digest: str = ""


def resolve_experiment(experiment_id: str) -> Any:
    """Resolve an experiment for a worker process.

    Registry ids (:mod:`repro.experiments.registry`) are tried first;
    an id shaped like ``"package.module:ATTRIBUTE"`` falls back to an
    import, so synthetic experiments (benchmarks, plugins) can cross
    the pool boundary without polluting the figure registry.
    """
    from repro.experiments import registry

    try:
        return registry.get(experiment_id)
    except KeyError:
        if ":" not in experiment_id:
            raise
    module_name, _, attribute = experiment_id.partition(":")
    import importlib

    obj = getattr(importlib.import_module(module_name), attribute)
    return obj() if isinstance(obj, type) else obj


def _trace_capture() -> Any:
    """:mod:`repro.obs.capture` when ``REPRO_TRACE`` is set, else None.

    The env check happens *before* the import so an untraced sweep never
    loads the observability layer (in workers or inline).
    """
    if not os.environ.get("REPRO_TRACE", "").strip():
        return None
    from repro.obs import capture

    return capture


def execute_point(
    experiment: Any, params: Any, point: Any, seed: int, params_digest: str = ""
) -> Any:
    """Run one point in this process, honoring flight-recorder capture.

    When tracing is on (``REPRO_TRACE``), the simulators this point
    constructs register telemetry buses process-locally; their records
    are exported to the point's trace file here, in the executing
    process, so nothing extra crosses a pool boundary.  A failed
    attempt discards its partial capture — only the successful run's
    trace survives.
    """
    capture = _trace_capture()
    if capture is None:
        return experiment.run_point(params, point, seed)
    capture.discard_active()  # drop any stale buses from a prior attempt
    try:
        value = experiment.run_point(params, point, seed)
    except BaseException:
        capture.discard_active()
        raise
    if not params_digest:
        from repro.runner.checkpoint import digest_params

        params_digest = digest_params(params)
    capture.export_point_trace(experiment.id, point.label, seed, params_digest)
    return value


class SweepBackend(abc.ABC):
    """Where and how sweep points execute; see the module docstring."""

    #: short id used in journal headers, stats, and the CLI.
    name: str = "abstract"
    #: True when ``submit`` executes the point before returning; the
    #: runner then submits lazily so each result lands durably before
    #: the next point starts.
    inline: bool = False

    def open(self, max_workers: int) -> None:
        """Acquire up to ``max_workers`` workers for one dispatch."""

    @abc.abstractmethod
    def submit(self, spec: PointSpec) -> "concurrent.futures.Future[Any]":
        """Schedule one point; the future resolves to its value."""

    def drain(
        self,
        futures: Iterable["concurrent.futures.Future[Any]"],
        timeout: Optional[float] = None,
    ) -> "set[concurrent.futures.Future[Any]]":
        """Wait until at least one future completes; return the done set."""
        done, _ = concurrent.futures.wait(
            list(futures),
            timeout=timeout,
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        return done

    def close(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Release workers; with ``cancel_futures`` drop queued work."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"
