"""Process-pool execution.

Only ``(experiment_id, params, point, seed)`` crosses the process
boundary, so experiments never need to be picklable themselves — but
they must be *resolvable* in the worker: registered in
:mod:`repro.experiments.registry`, or addressable as a
``"module:attribute"`` id (see
:func:`repro.runner.backends.base.resolve_experiment`).
"""

from __future__ import annotations

import concurrent.futures
from typing import Any, Optional

from repro.runner.backends.base import (
    PointSpec,
    SweepBackend,
    execute_point,
    resolve_experiment,
)

__all__ = ["ProcessPoolBackend"]


def _pool_worker(experiment_id: str, params: Any, point: Any, seed: int) -> Any:
    """Worker entry: re-resolve the experiment by id and run one point."""
    experiment = resolve_experiment(experiment_id)
    return execute_point(experiment, params, point, seed)


class ProcessPoolBackend(SweepBackend):
    """The classic fan-out: one OS process per worker, pickle transport.

    Results round-trip through the pool's result pipe as pickles — fine
    for the dataclass payloads figures return (the largest, fig4's, is
    ~135 KB per point).
    """

    name = "process"

    def __init__(self, mp_context: Any = None) -> None:
        self._mp_context = mp_context
        self._pool: Optional[concurrent.futures.Executor] = None

    def open(self, max_workers: int) -> None:
        if self._pool is None:
            self._pool = self._make_pool(max_workers)

    def _make_pool(self, max_workers: int) -> concurrent.futures.Executor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers, mp_context=self._mp_context
        )

    def submit(self, spec: PointSpec) -> "concurrent.futures.Future[Any]":
        if self._pool is None:
            raise RuntimeError(f"{self.name} backend is not open")
        return self._pool.submit(
            _pool_worker, spec.experiment_id, spec.params, spec.point, spec.seed
        )

    def close(self, wait: bool = True, cancel_futures: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)
            self._pool = None

