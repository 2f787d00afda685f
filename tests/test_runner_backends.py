"""The SweepBackend seam: backend equivalence, submission order, and
the engine's one attempt loop.

The headline guarantees under test:

* serial and process backends produce byte-identical merged payloads
  *and* checkpoint journals for the same sweep;
* points are submitted in enumeration order, every backend's future
  resolves to the point's value, and a backend completing them in any
  order at all — a hypothesis-drawn permutation — never changes merged
  output;
* a sweep SIGKILLed under the process backend resumes under serial (the
  journal is backend-independent), and so does a journal an older
  release wrote under the since-removed ``shm`` backend;
* the backend is closed on every exit path of the attempt loop.
"""

import concurrent.futures
import dataclasses
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import registry
from repro.experiments.base import Experiment, Point
from repro.experiments.store import to_jsonable
from repro.runner import (
    ResultCache,
    RetryPolicy,
    SweepCheckpoint,
    SweepRunner,
    create_backend,
)
from repro.runner.backends import (
    BACKENDS,
    PointSpec,
    SerialBackend,
    SweepBackend,
    execute_point,
)
from repro.runner.checkpoint import digest_params
from repro.runner.retry import TRANSIENT, classify_failure
from repro.sim.randomness import derive_seed
from tests.helpers import ThreadPoolBackend


@dataclasses.dataclass
class _ToyParams:
    protocol: str = "reno"

    @classmethod
    def quick(cls, protocol="reno", **overrides):
        return cls(protocol=protocol, **overrides)


class _SpyExperiment(Experiment):
    """Records execution order; results depend only on (label, seed)."""

    id = "toy-backend-spy"
    title = "backend test double"
    params_cls = _ToyParams

    def __init__(self, n_points=4):
        self.n_points = n_points
        self.executed = []

    def points(self, params):
        return [Point(f"p{i}", {"i": i}) for i in range(self.n_points)]

    def run_point(self, params, point, seed):
        self.executed.append(point.label)
        return {"label": point.label, "seed": seed}

    def reduce(self, params, points, results):
        return list(results)


def _journal_point_lines(path):
    """The journal's point records (header lines filtered), sorted."""
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line and '"result"' in line
    ]
    return sorted(lines)


# ----------------------------------------------------------------------
# Cross-backend equivalence on a real experiment
# ----------------------------------------------------------------------

class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """The serial run every other backend must match."""
        return self._sweep("serial", tmp_path_factory.mktemp("ref"))

    @staticmethod
    def _sweep(backend, tmp_path):
        experiment = registry.get("incast")
        params = experiment.make_params(
            "quick", protocol="reno", sender_counts=(2, 3),
            block_bytes=16 * 1024,
        )
        journal = tmp_path / f"{backend}.jsonl"
        runner = SweepRunner(
            jobs=2,
            cache=None,
            backend=backend,
            checkpoint=SweepCheckpoint(journal),
        )
        payload = runner.run(experiment, params, seed=3)
        return payload, _journal_point_lines(journal), runner.last_stats

    @pytest.mark.parametrize("backend", ["process"])
    def test_payloads_and_journals_identical(
        self, backend, reference, tmp_path
    ):
        ref_payload, ref_journal, _ = reference
        payload, journal, stats = self._sweep(backend, tmp_path)
        assert to_jsonable(payload) == to_jsonable(ref_payload)
        # Journal records hold base64 pickles: byte-identical means the
        # transported results are byte-identical, not merely equal.
        assert journal == ref_journal
        assert stats.backend == backend
        assert stats.failures == []

    def test_stats_name_serial(self, reference):
        assert reference[2].backend == "serial"


class TestOpenLoopBackendEquivalence:
    """One openloop point (seeded schedule + driver) is byte-identical
    under every backend — the open-loop engine's determinism crosses
    the pickle transport intact."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        return self._sweep("serial", tmp_path_factory.mktemp("ol-ref"))

    @staticmethod
    def _sweep(backend, tmp_path):
        experiment = registry.get("openloop")
        params = experiment.make_params(
            "quick", protocol="reno", load_factors=(1.0,),
        )
        journal = tmp_path / f"{backend}.jsonl"
        runner = SweepRunner(
            jobs=2,
            cache=None,
            backend=backend,
            checkpoint=SweepCheckpoint(journal),
        )
        payload = runner.run(experiment, params, seed=11)
        return payload, _journal_point_lines(journal), runner.last_stats

    @pytest.mark.parametrize("backend", ["process"])
    def test_payloads_and_journals_identical(
        self, backend, reference, tmp_path
    ):
        ref_payload, ref_journal, _ = reference
        payload, journal, stats = self._sweep(backend, tmp_path)
        assert to_jsonable(payload) == to_jsonable(ref_payload)
        assert journal == ref_journal
        assert stats.backend == backend
        assert stats.failures == []

    def test_point_actually_simulated(self, reference):
        payload = reference[0]
        assert len(payload) == 1
        assert payload[0].completed == payload[0].offered > 0


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

class TestBackendSelection:
    @pytest.fixture
    def spy(self):
        # Non-inline backends resolve experiments by id in the worker.
        experiment = _SpyExperiment()
        registry._ensure_loaded()
        registry._REGISTRY[experiment.id] = experiment
        yield experiment
        registry._REGISTRY.pop(experiment.id, None)

    def test_create_backend_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match=r"\(known: serial, process\)"):
            create_backend("threads")

    def test_create_backend_shm_is_gone(self):
        with pytest.raises(ValueError, match=r"\(known: serial, process\)"):
            create_backend("shm")

    def test_registry_names(self):
        # One table: each name maps to the module and class it imports.
        assert set(BACKENDS) == {"serial", "process"}
        for name in BACKENDS:
            module, cls = BACKENDS[name]
            assert getattr(importlib.import_module(module), cls).name == name

    def test_broken_process_pool_is_transient(self):
        # retry.py lists only BrokenExecutor, the base: a worker death in
        # the process pool still retries without charging the budget.
        from concurrent.futures.process import BrokenProcessPool

        assert classify_failure(BrokenProcessPool("worker died")) == TRANSIENT

    def test_runner_rejects_non_backend_object(self):
        with pytest.raises(TypeError, match="SweepBackend"):
            SweepRunner(backend=object())

    def test_runner_rejects_unknown_schedule(self):
        # Cost-aware order is unconditional: there is no schedule to name.
        with pytest.raises(TypeError, match="schedule"):
            SweepRunner(schedule="fifo")

    def test_serial_backend_ignores_jobs(self):
        spy = _SpyExperiment()
        runner = SweepRunner(jobs=4, backend="serial")
        runner.run(spy, _ToyParams(), seed=0)
        assert runner.last_stats.backend == "serial"
        assert spy.executed == ["p0", "p1", "p2", "p3"]

    def test_make_pool_override_supplies_the_executor(self, spy):
        # The seam for a custom executor: subclass the pool backend and
        # override _make_pool (here, threads).
        runner = SweepRunner(jobs=2, backend=ThreadPoolBackend())
        payload = runner.run(spy, _ToyParams(), seed=1)
        assert [r["label"] for r in payload] == ["p0", "p1", "p2", "p3"]
        assert spy.executed  # ran in this process, on the thread pool


# ----------------------------------------------------------------------
# Submission and completion order
# ----------------------------------------------------------------------

class _PermutedBackend(SweepBackend):
    """Holds every submission and completes them in ``order`` (indices
    into submission order), whichever future the runner waits on."""

    name = "permuted"

    def __init__(self, order):
        self.order = list(order)
        self.held = []

    def submit(self, spec):
        future = concurrent.futures.Future()
        self.held.append((spec, future))
        return future

    def drain(self, futures, timeout=None):
        futures = list(futures)
        while not any(f.done() for f in futures):
            spec, future = self.held[self.order.pop(0)]
            future.set_running_or_notify_cancel()
            future.set_result(execute_point(
                spec.experiment, spec.params, spec.point, spec.seed
            ))
        return {f for f in futures if f.done()}


class TestScheduler:
    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(tuple(range(5))))
    def test_any_submission_order_same_merged_payload(self, order):
        """A backend may run its submissions in any order: merge is by
        point index, so the payload is the enumeration-order one."""
        baseline = SweepRunner().run(
            _SpyExperiment(n_points=5), _ToyParams(), seed=7
        )
        spy = _SpyExperiment(n_points=5)
        backend = _PermutedBackend(order)
        # One slot per point: the runner keeps at most ``jobs`` attempts
        # in flight, and this backend may finish all five in any order.
        payload = SweepRunner(jobs=5, backend=backend).run(
            spy, _ToyParams(), seed=7
        )
        assert [spec.point.label for spec, _ in backend.held] == [
            "p0", "p1", "p2", "p3", "p4"
        ]
        assert spy.executed == [f"p{i}" for i in order]
        assert payload == baseline

    def test_earlier_runtimes_do_not_reorder_the_next_sweep(self, tmp_path):
        # Later points take longer; a sweep under a new seed over the same
        # cache still runs them in enumeration order.
        class SlowerLater(_SpyExperiment):
            def run_point(self, params, point, seed):
                time.sleep(0.004 * point.kwargs["i"])
                return super().run_point(params, point, seed)

        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(SlowerLater(n_points=5), _ToyParams(), seed=4)
        spy = SlowerLater(n_points=5)
        SweepRunner(cache=cache).run(spy, _ToyParams(), seed=5)
        assert spy.executed == ["p0", "p1", "p2", "p3", "p4"]
        # The cache root holds entry shards only: no runtime ledger.
        assert all(p.is_dir() for p in (tmp_path / "cache").iterdir())

    @pytest.mark.parametrize("make", [SerialBackend, ThreadPoolBackend])
    def test_future_resolves_to_the_value(self, make, monkeypatch):
        spy = _SpyExperiment()
        registry._ensure_loaded()  # the pool resolves the spy by id
        monkeypatch.setitem(registry._REGISTRY, spy.id, spy)
        point = spy.points(_ToyParams())[1]
        backend = make()
        backend.open(1)
        try:
            future = backend.submit(PointSpec(
                experiment=spy, experiment_id=spy.id, params=_ToyParams(),
                point=point, seed=9,
            ))
            assert future.result(timeout=10) == {"label": "p1", "seed": 9}
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Journal headers and cross-backend resume
# ----------------------------------------------------------------------

class TestJournalHeader:
    def test_header_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ckpt = SweepCheckpoint(path)
        ckpt.write_header(backend="shm", jobs=4)
        ckpt.record("toy", "p0", 1, "ok")
        ckpt.close()
        loaded = SweepCheckpoint(path)
        assert loaded.load() == {("toy", "p0", 1, ""): "ok"}
        assert loaded.header["backend"] == "shm"
        assert loaded.header["jobs"] == 4

    def test_runner_writes_header_on_dispatch(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        runner = SweepRunner(
            backend="serial", checkpoint=SweepCheckpoint(path)
        )
        runner.run(_SpyExperiment(), _ToyParams(), seed=1)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["backend"] == "serial"
        assert "schedule" not in first

    def test_resume_accepts_records_from_another_backend(self, tmp_path):
        self._resume_under_serial(tmp_path, written_by="process")

    def test_resume_accepts_a_journal_headed_shm(self, tmp_path):
        # Input from an older release: the backend is gone, but the
        # header is informational and its journals must keep resuming.
        self._resume_under_serial(tmp_path, written_by="shm")

    @staticmethod
    def _resume_under_serial(tmp_path, written_by):
        spy = _SpyExperiment()
        params = _ToyParams()
        path = tmp_path / "journal.jsonl"
        # A journal "left behind" by a run on another backend that only
        # got through p1 (header + one record, written by hand).
        seed_p1 = derive_seed(6, f"{spy.id}/p1")
        # The header is written by hand in an older release's shape: it
        # still carries the ``schedule`` key this release no longer writes.
        path.write_text(json.dumps({
            "schema": "repro-sweep-journal/1", "backend": written_by,
            "jobs": 8, "schedule": "cost",
        }) + "\n")
        ckpt = SweepCheckpoint(path)
        ckpt.record(
            spy.id, "p1", seed_p1, {"label": "p1", "seed": seed_p1},
            params_digest=digest_params(params),
        )
        ckpt.close()
        runner = SweepRunner(
            backend="serial", checkpoint=SweepCheckpoint(path), resume=True
        )
        payload = runner.run(spy, params, seed=6)
        assert runner.last_stats.resumed == 1
        assert runner.last_stats.executed == 3
        assert spy.executed == ["p0", "p2", "p3"]  # p1 replayed for free
        baseline = SweepRunner().run(_SpyExperiment(), params, seed=6)
        assert payload == baseline


_PROCESS_KILL_SCRIPT = """
import dataclasses, json, os, sys, time

from repro.experiments import registry
from repro.experiments.base import Experiment, Point
from repro.runner import SweepCheckpoint, SweepRunner


@dataclasses.dataclass
class Params:
    protocol: str = "reno"


class Sleepy(Experiment):
    id = "toy-process-kill"
    title = "process-backend kill -9 target"
    params_cls = Params

    def points(self, params):
        return [Point(f"p{i}", {"i": i}) for i in range(3)]

    def run_point(self, params, point, seed):
        if point.kwargs["i"] >= 1 and os.environ.get("SLOW") == "1":
            time.sleep(60.0)  # parent SIGKILLs us here
        return {"i": point.kwargs["i"], "seed": seed, "f": 0.1 + 0.2}

    def reduce(self, params, points, results):
        return list(results)


# A spawned pool worker re-imports this script (as ``__mp_main__``) to
# unpickle ``Params``, so the registration stays at module level and
# the sweep runs only under the ``__main__`` guard.
registry._ensure_loaded()
registry._REGISTRY[Sleepy.id] = Sleepy()

if __name__ == "__main__":
    if os.environ.get("RESUME") == "1":
        # Resume on a *different* backend than the one that crashed.
        runner = SweepRunner(
            checkpoint=SweepCheckpoint(sys.argv[1]), resume=True, backend="serial"
        )
    else:
        runner = SweepRunner(
            jobs=2,
            checkpoint=SweepCheckpoint(sys.argv[1]),
            backend="process",
        )
    payload = runner.run(registry.get(Sleepy.id), Params(), seed=5)
    print(json.dumps({
        "payload": payload,
        "resumed": runner.last_stats.resumed,
        "executed": runner.last_stats.executed,
        "backend": runner.last_stats.backend,
    }))
"""


def _live_group_members(pgid):
    """Pids in process group ``pgid`` that are not zombies (an orphan
    killed after its parent died may wait a while to be reaped)."""
    live = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # "pid (comm) state ppid pgrp ...": comm may contain spaces.
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            live.append(int(entry.name))
    return live


def _sigkill_mid_sweep(tmp_path, env):
    """Run the kill script under ``process`` until p0 is journalled and
    p1/p2 sleep in their workers, then SIGKILL the parent alone.

    Returns the script and journal paths, the parent's process group
    (the child leads a new session, so its workers are found by group)
    and the group members alive besides the parent before the kill.
    """
    script = tmp_path / "sweep.py"
    script.write_text(_PROCESS_KILL_SCRIPT)
    journal = tmp_path / "journal.jsonl"
    proc = subprocess.Popen(
        [sys.executable, str(script), str(journal)],
        env={**env, "SLOW": "1"},
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    pgid = proc.pid  # a new session's leader leads its own group
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if journal.exists() and '"result"' in journal.read_text():
                break
            time.sleep(0.05)
        else:
            pytest.fail("first point never reached the journal")
        workers = [pid for pid in _live_group_members(pgid) if pid != proc.pid]
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30.0)
    assert proc.returncode == -signal.SIGKILL
    return script, journal, pgid, workers


def _await_empty_group(pgid, seconds):
    """The group's live members once it empties or ``seconds`` pass."""
    deadline = time.monotonic() + seconds
    while _live_group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return _live_group_members(pgid)


def _kill_env():
    return dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
    )


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
class TestWorkersExitWithParent:
    def test_sigkill_of_the_parent_ends_every_worker_within_two_seconds(
        self, tmp_path
    ):
        # Both workers are mid-point (a 60 s sleep) when the parent
        # dies; each one's watchdog sees the parent's pipe close.
        _, _, pgid, workers = _sigkill_mid_sweep(tmp_path, _kill_env())
        assert len(workers) >= 2, "the sweep started no pool workers"
        assert _await_empty_group(pgid, 2.0) == []


class TestProcessKillDashNine:
    @pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
    def test_sigkill_under_process_resumes_under_serial(self, tmp_path):
        env = _kill_env()

        # Run 1 (process backend): p0's result lands in the journal,
        # p1/p2 sleep in workers; SIGKILL the parent alone.  Its
        # workers exit with it: nothing is left to clean up.
        script, journal, pgid, _ = _sigkill_mid_sweep(tmp_path, env)
        assert _await_empty_group(pgid, 10.0) == []
        loaded = SweepCheckpoint(journal)
        journalled = loaded.load()
        assert [(key[0], key[1]) for key in journalled] == [
            ("toy-process-kill", "p0")
        ]
        assert loaded.header["backend"] == "process"

        # Run 2: resume the process journal on the serial backend.
        resumed = subprocess.run(
            [sys.executable, str(script), str(journal)],
            env={**env, "SLOW": "0", "RESUME": "1"},
            stdout=subprocess.PIPE,
            check=True,
            timeout=60.0,
        )
        outcome = json.loads(resumed.stdout)
        assert outcome["resumed"] == 1
        assert outcome["executed"] == 2
        assert outcome["backend"] == "serial"

        # Reference: an uninterrupted serial run with its own journal.
        fresh = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "fresh.jsonl")],
            env={**env, "SLOW": "0", "RESUME": "0"},
            stdout=subprocess.PIPE,
            check=True,
            timeout=60.0,
        )
        assert outcome["payload"] == json.loads(fresh.stdout)["payload"]


# ----------------------------------------------------------------------
# Failure accounting: the timeouts/errors split and control-flow exits
# ----------------------------------------------------------------------

class _FailingExperiment(_SpyExperiment):
    """Raises for one label; everything else succeeds."""

    id = "toy-backend-failing"

    def run_point(self, params, point, seed):
        if point.label == "p1":
            raise ValueError("broken point")
        return super().run_point(params, point, seed)


class _ExitingExperiment(_SpyExperiment):
    """Calls sys.exit from inside a point."""

    id = "toy-backend-exiting"

    def run_point(self, params, point, seed):
        raise SystemExit(7)


class _SleepyExperiment(_SpyExperiment):
    """Every point sleeps long enough to trip a short runner timeout."""

    id = "toy-backend-sleepy"

    def run_point(self, params, point, seed):
        time.sleep(1.0)
        return super().run_point(params, point, seed)


class TestFailureAccounting:
    def test_point_error_lands_in_stats_errors(self):
        runner = SweepRunner(
            jobs=1, backend="serial", retry_policy=RetryPolicy(max_attempts=1)
        )
        with pytest.warns(RuntimeWarning, match="failed"):
            runner.run(_FailingExperiment(3), _ToyParams(), seed=0)
        stats = runner.last_stats
        assert stats.errors == 1
        assert stats.timeouts == 0
        assert len(stats.failures) == 1
        assert stats.failures[0].kind == "deterministic"
        assert stats.failures[0].label == "p1"

    def test_timeout_lands_in_stats_timeouts_with_kind(self):
        # A thread pool resolves experiments by id in-process, so the
        # sleepy toy must sit in the registry for the sweep's duration.
        experiment = _SleepyExperiment(1)
        registry._ensure_loaded()
        registry._REGISTRY[experiment.id] = experiment
        try:
            runner = SweepRunner(
                jobs=2,
                backend=ThreadPoolBackend(),
                retry_policy=RetryPolicy(max_attempts=1),
                timeout=0.1,
            )
            with pytest.warns(RuntimeWarning, match="failed"):
                runner.run(experiment, _ToyParams(), seed=0)
        finally:
            registry._REGISTRY.pop(experiment.id, None)
        stats = runner.last_stats
        assert stats.timeouts == 1
        assert stats.errors == 0
        assert len(stats.failures) == 1
        assert stats.failures[0].kind == "timeout"

    def test_system_exit_propagates_out_of_a_serial_sweep(self):
        # SystemExit is control flow, not a point failure: the serial
        # backend must re-raise it instead of feeding it to the retry
        # loop as if the point had merely errored.
        runner = SweepRunner(
            jobs=1, backend="serial", retry_policy=RetryPolicy(max_attempts=4)
        )
        with pytest.raises(SystemExit):
            runner.run(_ExitingExperiment(2), _ToyParams(), seed=0)
        assert runner.last_stats is None or runner.last_stats.errors == 0


# ----------------------------------------------------------------------
# The backend is released on every exit path of the attempt loop
# ----------------------------------------------------------------------

class _CloseSpy:
    """Mixin: run as the base backend does, remember how it was closed."""

    def __init__(self):
        super().__init__()
        self.close_calls = []

    def close(self, wait=True, cancel_futures=False):
        self.close_calls.append((wait, cancel_futures))
        super().close(wait=wait, cancel_futures=cancel_futures)


class _InlineCloseSpy(_CloseSpy, SerialBackend):
    pass


class _PoolCloseSpy(_CloseSpy, ThreadPoolBackend):
    pass


class _FullDiskCheckpoint(SweepCheckpoint):
    def record(self, *args, **kwargs):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "spy_backend", [_InlineCloseSpy, _PoolCloseSpy], ids=["inline", "pool"]
)
class TestCloseOnEveryExit:
    @pytest.fixture
    def experiment(self):
        # The pool spy resolves experiments by id, like any pool.
        experiment = _SpyExperiment()
        registry._ensure_loaded()
        registry._REGISTRY[experiment.id] = experiment
        yield experiment
        registry._REGISTRY.pop(experiment.id, None)

    def test_journal_error_closes_and_propagates(
        self, spy_backend, experiment, tmp_path
    ):
        backend = spy_backend()
        runner = SweepRunner(
            jobs=2,
            backend=backend,
            checkpoint=_FullDiskCheckpoint(tmp_path / "journal.jsonl"),
        )
        with pytest.raises(OSError, match="No space left"):
            runner.run(experiment, _ToyParams(), seed=0)
        # Not waited on, queued work dropped: an error exit must not
        # block on stragglers.
        assert backend.close_calls == [(False, True)]

    def test_clean_run_closes_waiting(self, spy_backend, experiment):
        backend = spy_backend()
        SweepRunner(jobs=2, backend=backend).run(
            experiment, _ToyParams(), seed=0
        )
        assert backend.close_calls == [(True, False)]


# ----------------------------------------------------------------------
# Progress reporting: the timeouts/errors split on operator-facing lines
# ----------------------------------------------------------------------

class TestProgressFailureSplit:
    def test_progress_line_and_summary_split_timeouts_from_errors(self):
        import io

        from repro.runner.progress import ProgressReporter

        stream = io.StringIO()
        reporter = ProgressReporter(label="toy", stream=stream)
        reporter.start(total=5)
        reporter.point_done("p0")
        reporter.point_done("p1", failed=True, kind="timeout")
        reporter.point_done("p2", failed=True, kind="timeout")
        reporter.point_done("p3", failed=True, kind="transient")
        reporter.point_done("p4")
        reporter.finish()
        output = stream.getvalue()
        assert "(2 timeouts, 1 error FAILED)" in output
        assert "2 timeouts, 1 error failed" in output.splitlines()[-1]

    def test_clean_run_reports_zero_failed(self):
        import io

        from repro.runner.progress import ProgressReporter

        stream = io.StringIO()
        reporter = ProgressReporter(label="toy", stream=stream)
        reporter.start(total=1)
        reporter.point_done("p0")
        reporter.finish()
        assert "0 failed" in stream.getvalue().splitlines()[-1]
