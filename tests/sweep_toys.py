"""Toy experiments for the runner's failure-handling tests.

These live in their own importable module (not inside a test file)
because pool workers resolve experiments by ``"module:attr"`` id and
unpickle params defined here, so everything must be importable as the
top-level ``sweep_toys`` from a worker too (the tests put this
directory on ``sys.path``, and on ``PYTHONPATH`` for a CLI run).

Each toy models one failure class the engine must handle alike on
every backend:

``ECHO``     deterministic success — plumbing tests
``FLAKY``    fails exactly once per label (marker file), then succeeds,
             while the other labels sleep ``sleep_s`` — the
             deterministic-retry path, and a retry that must not wait
             behind the points queued after it
``POISON``   always fails for selected labels with a stable message,
             after ``sleep_s`` — the budget path (every execution
             counted)
``CRASH``    hard-exits the worker process for selected labels, once
             each — the transient path (a worker death breaks the pool)
``DOOMED``   hard-exits the worker on every execution of selected
             labels, while the other labels sleep ``sleep_s`` — the
             transient budget running out, and the points caught beside
             it
``STALL``    sleeps for selected labels on the first execution only —
             the engine's timeout resubmission and its straggler
``UNPICKLABLE`` puts a lambda in the kwargs of selected labels' points —
             the engine's picklability check, which must reject the
             sweep before any point runs
``PROBE``    reports what the executing process sees — its parent's
             pid and a class attribute a test may patch in the sweeping
             process — the worker's isolation from its parent
"""

import dataclasses
import os
import time

from repro.experiments.base import Experiment, Point


@dataclasses.dataclass
class ToyParams:
    n_points: int = 4
    state_dir: str = ""
    labels: tuple = ()
    sleep_s: float = 0.0

    @classmethod
    def quick(cls, **overrides):
        return cls(**overrides)


class _ToyBase(Experiment):
    title = "sweep test toy"
    params_cls = ToyParams

    def points(self, params):
        return [Point(f"p{i}", {"i": i}) for i in range(params.n_points)]

    def reduce(self, params, points, results):
        return list(results)

    @staticmethod
    def _count_run(params, point):
        """Append this execution's pid and start time (``time.time()``)
        to ``<label>.runs``, so a test can count how often, and see when,
        a point really ran across its workers."""
        if params.state_dir:
            runs = os.path.join(params.state_dir, f"{point.label}.runs")
            with open(runs, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {time.time()}\n")


class EchoExperiment(_ToyBase):
    id = "sweep_toys:ECHO"

    def run_point(self, params, point, seed):
        return {"label": point.label, "seed": seed, "pid": None}


class FlakyExperiment(_ToyBase):
    """Fails once per label, then succeeds — cross-process via marker files;
    the other labels sleep ``sleep_s``."""

    id = "sweep_toys:FLAKY"

    def run_point(self, params, point, seed):
        self._count_run(params, point)
        if point.label not in params.labels:
            time.sleep(params.sleep_s)
        marker = os.path.join(params.state_dir, f"{point.label}.failed")
        if point.label in params.labels and not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            raise ValueError(f"flaky {point.label}")
        return {"label": point.label, "seed": seed}


class PoisonExperiment(_ToyBase):
    """Deterministically fails for selected labels, same message every time."""

    id = "sweep_toys:POISON"

    def run_point(self, params, point, seed):
        if point.label in params.labels:
            self._count_run(params, point)
            time.sleep(params.sleep_s)
            raise ValueError(f"poison {point.label}")
        return {"label": point.label, "seed": seed}


class CrashExperiment(_ToyBase):
    """Kills the worker process outright for selected labels, once each."""

    id = "sweep_toys:CRASH"

    def run_point(self, params, point, seed):
        marker = os.path.join(params.state_dir, f"{point.label}.crashed")
        if point.label in params.labels and not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            os._exit(17)
        return {"label": point.label, "seed": seed}


class DoomedExperiment(_ToyBase):
    """Kills the worker process on every execution of selected labels; the
    other labels sleep ``sleep_s``."""

    id = "sweep_toys:DOOMED"

    def run_point(self, params, point, seed):
        self._count_run(params, point)
        if point.label in params.labels:
            os._exit(17)
        time.sleep(params.sleep_s)
        return {"label": point.label, "seed": seed}


class StallExperiment(_ToyBase):
    """Sleeps ``sleep_s`` for selected labels on their first execution only.

    The second execution (the resubmission) finds the marker and
    returns immediately — so a straggler test completes fast and both
    executions produce the identical deterministic value.
    """

    id = "sweep_toys:STALL"

    def run_point(self, params, point, seed):
        self._count_run(params, point)
        marker = os.path.join(params.state_dir, f"{point.label}.stalled")
        if point.label in params.labels and not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            time.sleep(params.sleep_s)
        return {"label": point.label, "seed": seed}


class UnpicklableExperiment(_ToyBase):
    """Ships a lambda in the selected points' kwargs; counts executions."""

    id = "sweep_toys:UNPICKLABLE"

    def points(self, params):
        return [
            Point(p.label, {"fn": lambda: 0}) if p.label in params.labels else p
            for p in super().points(params)
        ]

    def run_point(self, params, point, seed):
        self._count_run(params, point)
        return {"label": point.label, "seed": seed}


class ProbeExperiment(_ToyBase):
    """Reports the executing process's parent pid and ``marker``."""

    id = "sweep_toys:PROBE"
    marker = "as imported"

    def run_point(self, params, point, seed):
        return {"ppid": os.getppid(), "marker": ProbeExperiment.marker}


ECHO = EchoExperiment()
FLAKY = FlakyExperiment()
POISON = PoisonExperiment()
CRASH = CrashExperiment()
DOOMED = DoomedExperiment()
STALL = StallExperiment()
UNPICKLABLE = UnpicklableExperiment()
PROBE = ProbeExperiment()
