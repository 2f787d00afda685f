"""Parallel sweep execution for experiments.

The runner fans the independent points of an :class:`~repro.experiments.base.Experiment`
out to a pluggable execution backend, with:

* deterministic per-point seeds and merge by point index (results are
  identical for any worker count, any backend and any completion order
  — see :func:`repro.sim.randomness.derive_seed`); points are submitted
  in enumeration order and no history is kept between sweeps;
* three backends (:mod:`repro.runner.backends`): ``serial`` (inline,
  the ``jobs=1`` default), ``process``
  (:class:`~concurrent.futures.ProcessPoolExecutor` fan-out), and
  ``dispatch`` (below);
* a content-addressed on-disk result cache keyed on package version,
  experiment id, params, point, and seed, so re-runs of unchanged
  points are free;
* per-point timeout and retry with graceful degradation to a partial
  result set: backends report each failed attempt (with the worker that
  ran it, when they know), and one loop in the engine
  (:meth:`SweepRunner._drain`) classifies it (transient / timeout /
  deterministic) and decides — by the one
  :class:`~repro.runner.dispatch.retry.RetryPolicy` — whether the point
  runs again, for every backend; a failure two distinct workers agree
  on quarantines the point;
* a fault-tolerant multi-host backend (``dispatch``,
  :mod:`repro.runner.dispatch`): socket workers with heartbeat leases,
  lost-worker detection, and a bound on hosts that cannot start workers;
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

from repro.runner.backends import (
    PointSpec,
    ProcessPoolBackend,
    SerialBackend,
    SweepBackend,
    create_backend,
)
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import SweepCheckpoint

# Light imports by design: the exceptions and policy live in
# repro.runner.dispatch.retry, and the dispatch package re-exports
# nothing, so this pulls no sockets, subprocesses or repro.obs.  The
# DispatchBackend itself is loaded lazily via create_backend
# (tests/test_import_graph.py holds both).
from repro.runner.dispatch.retry import (
    DispatchError,
    LeaseExpired,
    RemoteError,
    RetryPolicy,
    WorkerLost,
)
from repro.runner.engine import (
    PointFailure,
    SweepInterrupted,
    SweepRunner,
    SweepStats,
)
from repro.runner.progress import ProgressReporter

__all__ = [
    "DispatchError",
    "LeaseExpired",
    "PointFailure",
    "PointSpec",
    "ProcessPoolBackend",
    "ProgressReporter",
    "RemoteError",
    "ResultCache",
    "RetryPolicy",
    "SerialBackend",
    "SweepBackend",
    "SweepCheckpoint",
    "SweepInterrupted",
    "SweepRunner",
    "SweepStats",
    "WorkerLost",
    "create_backend",
]
