"""Process-pool execution.

Workers are *spawned*: each is a fresh interpreter that inherits none
of the sweeping process's heap, class patches or threads, and imports
only what the points it runs need.  Only ``(experiment_id, params,
point, seed)`` crosses the process boundary, so experiments never need
to be picklable themselves — but they must be *resolvable* in the
worker: registered when their module is imported (see
:mod:`repro.experiments.registry`), or addressable as a
``"module:attribute"`` id (see
:func:`repro.runner.backends.base.resolve_experiment`).  DESIGN.md §4
("Workers are spawned") says why neither ``fork`` nor ``forkserver``.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import multiprocessing.connection
import os
import threading
from typing import Any, Optional

from repro.runner.backends.base import (
    PointSpec,
    SweepBackend,
    execute_point,
    resolve_experiment,
)

__all__ = ["ProcessPoolBackend"]


def _exit_with_parent() -> None:
    """Pool initializer: end this worker the moment its parent dies.

    A daemon thread waits on the parent's sentinel, the read end of a
    pipe whose write end only the parent holds (a spawned worker
    inherits no other process's copy), so it reads EOF exactly when the
    parent exits — a SIGKILLed sweep leaves no orphan to finish its
    point.
    """
    parent = multiprocessing.parent_process()
    assert parent is not None  # an initializer runs in a pool worker
    sentinel = parent.sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _pool_worker(experiment_id: str, params: Any, point: Any, seed: int) -> Any:
    """Worker entry: re-resolve the experiment by id and run one point."""
    experiment = resolve_experiment(experiment_id)
    return execute_point(experiment, params, point, seed)


class ProcessPoolBackend(SweepBackend):
    """The classic fan-out: one OS process per worker, pickle transport.

    Results round-trip through the pool's result pipe as pickles — fine
    for the dataclass payloads figures return (the largest, fig4's, is
    ~135 KB per point).

    A worker that dies mid-point breaks the whole executor: every future
    in it fails with ``BrokenProcessPool``, which the engine classifies
    as transient.  ``submit`` then finds the pool broken and replaces it
    with a new one of the same size, so each point caught in the dead
    pool costs one transient retry, not the rest of the sweep.  The
    engine resubmits those points one at a time until one succeeds,
    then at full width again.
    """

    name = "process"

    def __init__(self) -> None:
        self._pool: Optional[concurrent.futures.Executor] = None
        self._max_workers = 0

    def open(self, max_workers: int) -> None:
        if self._pool is None:
            self._max_workers = max_workers
            self._pool = self._make_pool(max_workers)

    def _make_pool(self, max_workers: int) -> concurrent.futures.Executor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_exit_with_parent,
        )

    def submit(self, spec: PointSpec) -> "concurrent.futures.Future[Any]":
        if self._pool is None:
            raise RuntimeError(f"{self.name} backend is not open")
        args = (spec.experiment_id, spec.params, spec.point, spec.seed)
        try:
            return self._pool.submit(_pool_worker, *args)
        except concurrent.futures.BrokenExecutor:
            # Its workers are already gone; a second failure propagates.
            self._pool.shutdown(wait=False)
            self._pool = self._make_pool(self._max_workers)
            return self._pool.submit(_pool_worker, *args)

    def close(self, wait: bool = True, cancel_futures: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)
            self._pool = None
