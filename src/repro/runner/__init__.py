"""Parallel sweep execution for experiments.

The runner fans the independent points of an :class:`~repro.experiments.base.Experiment`
out to a pluggable execution backend, with:

* deterministic per-point seeds and merge by point index (results are
  identical for any worker count, any backend and any completion order
  — see :func:`repro.sim.randomness.derive_seed`); points are submitted
  in enumeration order, at most ``jobs`` attempts in flight, and no
  history is kept between sweeps;
* two backends (:mod:`repro.runner.backends`): ``serial`` (inline,
  the ``jobs=1`` default) and ``process``
  (:class:`~concurrent.futures.ProcessPoolExecutor` fan-out, which
  replaces a pool that a dead worker broke);
* a content-addressed on-disk result cache keyed on package version,
  experiment id, params, point, and seed, so re-runs of unchanged
  points are free;
* per-point timeout and retry with graceful degradation to a partial
  result set: backends report each failed attempt, and one loop in the
  engine (:meth:`SweepRunner._drain`) classifies it (transient /
  timeout / deterministic) and decides — by the one
  :class:`~repro.runner.retry.RetryPolicy` — whether the point runs
  again, for every backend;
* crash-safe checkpointing: an append-only, fsynced JSONL journal of
  completed points (:class:`~repro.runner.checkpoint.SweepCheckpoint`)
  that ``resume=True`` replays after a crash or Ctrl-C — under any
  backend, not just the one that wrote it;
* a progress/ETA reporter.

Typical use::

    from repro.experiments import registry
    from repro.runner import ResultCache, SweepRunner

    experiment = registry.get("fig8")
    params = experiment.make_params("quick", "trim")
    runner = SweepRunner(jobs=4, cache=ResultCache("~/.cache/repro-experiments"),
                         backend="process")
    payload = runner.run(experiment, params, seed=1)
"""

from typing import TYPE_CHECKING

# ``cache``, ``checkpoint`` and ``engine`` (with the serial backend it
# defaults to) load with the package: every sweep runs them, so a caller
# that times ``import repro.runner`` (the benchmark's set-up) pays for
# them there, not in its first sweep.
from repro import _lazy_exports
from repro.runner import cache, checkpoint, engine  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.backends import create_backend as create_backend
    from repro.runner.backends.base import PointSpec as PointSpec
    from repro.runner.backends.base import SweepBackend as SweepBackend
    from repro.runner.backends.pool import ProcessPoolBackend as ProcessPoolBackend
    from repro.runner.backends.serial import SerialBackend as SerialBackend
    from repro.runner.cache import ResultCache as ResultCache
    from repro.runner.checkpoint import SweepCheckpoint as SweepCheckpoint
    from repro.runner.engine import PointFailure as PointFailure
    from repro.runner.engine import SweepInterrupted as SweepInterrupted
    from repro.runner.engine import SweepRunner as SweepRunner
    from repro.runner.engine import SweepStats as SweepStats
    from repro.runner.progress import ProgressReporter as ProgressReporter
    from repro.runner.retry import RetryPolicy as RetryPolicy

_lazy_exports(__name__, {
    "ResultCache": "repro.runner.cache",
    "SweepCheckpoint": "repro.runner.checkpoint",
    "PointFailure": "repro.runner.engine",
    "SweepInterrupted": "repro.runner.engine",
    "SweepRunner": "repro.runner.engine",
    "SweepStats": "repro.runner.engine",
    "create_backend": "repro.runner.backends",
    "PointSpec": "repro.runner.backends.base",
    "SweepBackend": "repro.runner.backends.base",
    "ProcessPoolBackend": "repro.runner.backends.pool",
    "SerialBackend": "repro.runner.backends.serial",
    "ProgressReporter": "repro.runner.progress",
    "RetryPolicy": "repro.runner.retry",
})
