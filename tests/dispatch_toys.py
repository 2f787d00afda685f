"""Toy experiments for dispatch-backend tests.

These live in their own importable module (not inside a test file)
because dispatch workers are *fresh processes*: they resolve
experiments by ``"module:attr"`` id and unpickle params defined here,
so everything must be importable from a worker whose ``PYTHONPATH``
the backend extended with this directory (``extra_sys_path``).

Each toy models one failure class the dispatcher must survive:

``ECHO``     deterministic success — equivalence and plumbing tests
``FLAKY``    fails exactly once per label (marker file), then succeeds
             — exercises the deterministic-retry path
             without tripping quarantine
``POISON``   always fails for selected labels with a stable message,
             after ``sleep_s`` — the quarantine path (same signature,
             two workers) and the budget path (every execution counted)
``CRASH``    hard-exits the worker process for selected labels — the
             transient path (worker death mid-task)
``STALL``    sleeps forever (in sweep terms) for selected labels on the
             first execution only — the straggler paths (lease expiry,
             the engine's timeout resubmission)
``UNPICKLABLE`` puts a lambda in the kwargs of selected labels' points —
             the engine's picklability check, which must reject the
             sweep before any point runs
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
    title = "dispatch test toy"
    params_cls = ToyParams

    def points(self, params):
        return [Point(f"p{i}", {"i": i}) for i in range(params.n_points)]

    def reduce(self, params, points, results):
        return list(results)

    @staticmethod
    def _count_run(params, point):
        """Append this execution's pid to ``<label>.runs``, so a test can
        count how often a point really ran across the fleet."""
        if params.state_dir:
            runs = os.path.join(params.state_dir, f"{point.label}.runs")
            with open(runs, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")


class EchoExperiment(_ToyBase):
    id = "dispatch_toys:ECHO"

    def run_point(self, params, point, seed):
        return {"label": point.label, "seed": seed, "pid": None}


class FlakyExperiment(_ToyBase):
    """Fails once per label, then succeeds — cross-process via marker files."""

    id = "dispatch_toys:FLAKY"

    def run_point(self, params, point, seed):
        marker = os.path.join(params.state_dir, f"{point.label}.failed")
        if point.label in params.labels and not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            raise ValueError(f"flaky {point.label}")
        return {"label": point.label, "seed": seed}


class PoisonExperiment(_ToyBase):
    """Deterministically fails for selected labels, same message every time."""

    id = "dispatch_toys:POISON"

    def run_point(self, params, point, seed):
        if point.label in params.labels:
            self._count_run(params, point)
            time.sleep(params.sleep_s)
            raise ValueError(f"poison {point.label}")
        return {"label": point.label, "seed": seed}


class CrashExperiment(_ToyBase):
    """Kills the worker process outright for selected labels, once each."""

    id = "dispatch_toys:CRASH"

    def run_point(self, params, point, seed):
        marker = os.path.join(params.state_dir, f"{point.label}.crashed")
        if point.label in params.labels and not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            os._exit(17)
        return {"label": point.label, "seed": seed}


class StallExperiment(_ToyBase):
    """Sleeps ``sleep_s`` for selected labels on their first execution only.

    The second execution (the resubmission) finds the marker and
    returns immediately — so a straggler test completes fast and both
    executions produce the identical deterministic value.
    """

    id = "dispatch_toys:STALL"

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

    id = "dispatch_toys:UNPICKLABLE"

    def points(self, params):
        return [
            Point(p.label, {"fn": lambda: 0}) if p.label in params.labels else p
            for p in super().points(params)
        ]

    def run_point(self, params, point, seed):
        self._count_run(params, point)
        return {"label": point.label, "seed": seed}


ECHO = EchoExperiment()
FLAKY = FlakyExperiment()
POISON = PoisonExperiment()
CRASH = CrashExperiment()
STALL = StallExperiment()
UNPICKLABLE = UnpicklableExperiment()
