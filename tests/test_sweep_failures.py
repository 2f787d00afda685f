"""What the engine does with a failing point, on real worker processes.

Each test runs a real sweep through the failure toys in
``sweep_toys.py``.  Covered here: a worker that dies mid-sweep costs
the points caught in its pool one transient retry each, and a point
that kills every worker it gets fails as ``transient`` once that budget
is spent; a retry submitted as soon as a worker is free, ahead of the
points after it, and the points beside a worker-killer back at full
width once an attempt succeeds; the engine's timeout resubmission of an
overdue point; a process backend reopened for a second sweep; the
one-rule contract — a failing point ends the same way under ``serial``
and ``process``; and a worker's isolation: a fresh interpreter, the
sweeping process's direct child, that sees neither the parent's class
patches nor its run-time registrations.
"""

import concurrent.futures
import os
import sys
import time
from pathlib import Path

import pytest

TESTS_DIR = str(Path(__file__).resolve().parent)
# The toys must import as top-level ``sweep_toys`` — the name pool
# workers resolve — so params pickled here unpickle there.  (``tests``
# is a package, so pytest would otherwise import them as
# ``tests.sweep_toys``.)  A spawned worker starts with this process's
# ``sys.path``, so it finds them too.
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)
import sweep_toys  # noqa: E402

from repro.experiments import registry  # noqa: E402
from repro.experiments.store import to_jsonable  # noqa: E402
from repro.runner import RetryPolicy, SweepRunner  # noqa: E402
from repro.runner.backends import ProcessPoolBackend, SweepBackend  # noqa: E402


def _serial(experiment, params, seed=3):
    return SweepRunner(backend="serial").run(experiment, params, seed=seed)


class TestWorkerDeath:
    def test_a_worker_death_costs_one_transient_retry_not_the_sweep(
        self, tmp_path
    ):
        # p2 kills its worker on its first execution: the pool breaks,
        # and every future still in it fails with BrokenProcessPool.
        params = sweep_toys.ToyParams(
            n_points=8, state_dir=str(tmp_path), labels=("p2",)
        )
        runner = SweepRunner(jobs=2, backend="process")
        payload = runner.run(sweep_toys.CRASH, params, seed=3)
        stats = runner.last_stats
        assert stats.failures == []
        assert stats.transient_retries >= 1
        assert (tmp_path / "p2.crashed").exists()
        assert payload == _serial(sweep_toys.CRASH, params)

    @pytest.mark.filterwarnings("ignore:.*sweep point.*failed:RuntimeWarning")
    def test_a_point_that_kills_every_worker_fails_as_transient(
        self, tmp_path
    ):
        params = sweep_toys.ToyParams(
            n_points=4, state_dir=str(tmp_path), labels=("p0",)
        )
        runner = SweepRunner(
            jobs=2, backend="process",
            retry_policy=RetryPolicy(transient_budget=2),
        )
        payload = runner.run(sweep_toys.DOOMED, params, seed=3)
        [failure] = runner.last_stats.failures
        assert failure.label == "p0"
        assert failure.kind == "transient"
        assert failure.attempts == 3  # the first execution + 2 retries
        assert "BrokenProcessPool" in failure.error
        assert len((tmp_path / "p0.runs").read_text().splitlines()) == 3
        # The points caught in the first dead pool still finish.
        assert payload[0] is None
        assert [item["label"] for item in payload[1:]] == ["p1", "p2", "p3"]

    @pytest.mark.filterwarnings("ignore:.*sweep point.*failed:RuntimeWarning")
    def test_a_failed_resubmission_is_classified_not_presumed(self):
        # A pool that stays broken: the resubmission itself raises.
        class _StaysBroken(SweepBackend):
            name = "stays-broken"

            def submit(self, spec):
                if getattr(self, "broken", False):
                    raise concurrent.futures.BrokenExecutor("pool is gone")
                self.broken = True
                future = concurrent.futures.Future()
                future.set_exception(
                    concurrent.futures.BrokenExecutor("worker died")
                )
                return future

        runner = SweepRunner(jobs=2, backend=_StaysBroken())
        runner.run(sweep_toys.ECHO, sweep_toys.ToyParams(n_points=1), seed=3)
        [failure] = runner.last_stats.failures
        assert failure.error == (
            "retry submission failed: BrokenExecutor: pool is gone"
        )
        assert failure.kind == "transient"


class TestRetryScheduling:
    """A retry is submitted as soon as a worker is free, and its timeout
    runs from its own submission."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_retry_does_not_wait_behind_the_points_after_it(
        self, jobs, tmp_path
    ):
        # p0 fails its first execution at once; p1..p7 take 0.4 s each.
        # Its retry goes ahead of them and succeeds well inside its own
        # timeout, as under serial, instead of timing out in a queue.
        params = sweep_toys.ToyParams(
            n_points=8, state_dir=str(tmp_path), labels=("p0",), sleep_s=0.4,
        )
        runner = SweepRunner(
            jobs=jobs, backend="process", timeout=1.0,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        payload = runner.run(sweep_toys.FLAKY, params, seed=3)
        assert runner.last_stats.failures == []
        assert len((tmp_path / "p0.runs").read_text().splitlines()) == 2
        assert [item["label"] for item in payload] == [
            f"p{i}" for i in range(8)
        ]

    @pytest.mark.filterwarnings("ignore:.*sweep point.*failed:RuntimeWarning")
    def test_the_points_beside_a_worker_killer_overlap_again(self, tmp_path):
        # p0 kills every worker it gets.  The dead pool's casualties go
        # back one at a time until one succeeds, so p0 alone spends its
        # transient budget; then p1..p5 run two at a time again.
        sleep_s = 0.5
        params = sweep_toys.ToyParams(
            n_points=6, state_dir=str(tmp_path), labels=("p0",),
            sleep_s=sleep_s,
        )
        runner = SweepRunner(
            jobs=2, backend="process",
            retry_policy=RetryPolicy(transient_budget=3),
        )
        payload = runner.run(sweep_toys.DOOMED, params, seed=3)
        [failure] = runner.last_stats.failures
        assert (failure.label, failure.kind) == ("p0", "transient")
        assert failure.attempts == 4
        assert len((tmp_path / "p0.runs").read_text().splitlines()) == 4
        assert [item["label"] for item in payload[1:]] == [
            f"p{i}" for i in range(1, 6)
        ]
        started = {}
        for i in range(1, 6):
            runs = (tmp_path / f"p{i}.runs").read_text().splitlines()
            assert 1 <= len(runs) <= 2
            started[i] = float(runs[-1].split()[1])  # the run that succeeded
        later = sorted(started[i] for i in range(2, 6))
        assert min(b - a for a, b in zip(later, later[1:])) < sleep_s / 2


def test_overdue_point_is_resubmitted_by_engine_alone(tmp_path):
    # p1 stalls on its *first* execution only; the engine's timeout
    # resubmits it and the retry finds the marker file and returns at
    # once.  max_attempts bounds the executions in total.  The timeout
    # is over twice a cold worker's spawn-to-first-result time.
    stall_s = 1.5
    params = sweep_toys.ToyParams(
        n_points=4, state_dir=str(tmp_path), labels=("p1",), sleep_s=stall_s,
    )
    started = time.monotonic()
    runner = SweepRunner(
        jobs=2, backend="process", timeout=0.6,
        retry_policy=RetryPolicy(max_attempts=2),
    )
    payload = runner.run(sweep_toys.STALL, params, seed=3)
    elapsed = time.monotonic() - started
    stats = runner.last_stats
    assert len((tmp_path / "p1.runs").read_text().splitlines()) == 2
    assert stats.failures == []
    assert payload == _serial(sweep_toys.STALL, params)
    # The straggler is waited out and its late success is a counted
    # duplicate; nothing failed by timing out.
    assert elapsed < stall_s + 10.0
    assert stats.duplicate_results >= 1
    assert stats.timeouts == 0


def test_process_backend_is_reopenable_for_a_second_sweep():
    backend = ProcessPoolBackend()
    params = sweep_toys.ToyParams(n_points=3)
    runner = SweepRunner(jobs=2, backend=backend)
    first = runner.run(sweep_toys.ECHO, params, seed=3)
    second = runner.run(sweep_toys.ECHO, params, seed=3)
    assert to_jsonable(first) == to_jsonable(second)
    assert runner.last_stats.failures == []


@pytest.mark.parametrize("kind", ["serial", "process"])
class TestOneRuleEveryBackend:
    """What happens to a failing point does not depend on the backend."""

    def test_poisoned_point_fails_alike(self, kind):
        params = sweep_toys.ToyParams(n_points=4, labels=("p2",))
        runner = SweepRunner(jobs=2, backend=kind)
        with pytest.warns(RuntimeWarning, match="failed"):
            payload = runner.run(sweep_toys.POISON, params, seed=3)
        assert [item and item["label"] for item in payload] == [
            "p0", "p1", None, "p3"
        ]
        [failure] = runner.last_stats.failures
        assert failure.label == "p2"
        assert failure.attempts == 2
        assert failure.error == "ValueError: poison p2"
        assert failure.kind == "deterministic"

    def test_every_point_poisoned_fails_alike_and_promptly(self, kind):
        labels = ("p0", "p1", "p2", "p3")
        params = sweep_toys.ToyParams(n_points=4, labels=labels)
        runner = SweepRunner(jobs=2, backend=kind)
        started = time.monotonic()
        with pytest.warns(RuntimeWarning, match="failed"):
            payload = runner.run(sweep_toys.POISON, params, seed=3)
        elapsed = time.monotonic() - started
        assert payload == [None] * 4
        failures = sorted(runner.last_stats.failures, key=lambda f: f.label)
        assert [failure.label for failure in failures] == list(labels)
        for failure in failures:
            assert failure.attempts == 2
            assert failure.error == f"ValueError: poison {failure.label}"
            assert failure.kind == "deterministic"
        assert elapsed < 5.0

    def test_flaky_point_succeeds_on_its_second_execution(self, kind, tmp_path):
        params = sweep_toys.ToyParams(
            n_points=4, state_dir=str(tmp_path), labels=("p2",)
        )
        runner = SweepRunner(jobs=2, backend=kind)
        payload = runner.run(sweep_toys.FLAKY, params, seed=3)
        assert [item["label"] for item in payload] == ["p0", "p1", "p2", "p3"]
        assert runner.last_stats.failures == []
        assert (tmp_path / "p2.failed").exists()

    def test_unpicklable_point_is_rejected_before_any_point_runs(
        self, kind, tmp_path
    ):
        params = sweep_toys.ToyParams(
            n_points=4, state_dir=str(tmp_path), labels=("p2",)
        )
        runner = SweepRunner(jobs=2, backend=kind)
        with pytest.raises(TypeError) as info:
            runner.run(sweep_toys.UNPICKLABLE, params, seed=3)
        message = str(info.value)
        assert message.startswith(
            "sweep_toys:UNPICKLABLE/p2: point cannot be sent to a worker ("
        )
        assert "pickle" in message.lower()  # the pickling error itself
        assert list(tmp_path.glob("*.runs")) == []  # not even p0 ran


class TestWorkerIsolation:
    """A pool worker is a fresh interpreter started by the sweep itself."""

    def test_a_class_patched_in_the_parent_is_unpatched_in_a_worker(
        self, monkeypatch
    ):
        monkeypatch.setattr(sweep_toys.ProbeExperiment, "marker", "patched")
        params = sweep_toys.ToyParams(n_points=2)
        runner = SweepRunner(jobs=2, backend="process")
        payload = runner.run(sweep_toys.PROBE, params, seed=3)
        assert [item["marker"] for item in payload] == ["as imported"] * 2
        # Control: the patch holds in the sweeping process itself.
        serial = _serial(sweep_toys.PROBE, params)
        assert [item["marker"] for item in serial] == ["patched"] * 2

    def test_a_worker_is_a_direct_child_of_the_sweeping_process(self):
        # Only a direct child is reaped here, so only its peak RSS
        # reaches this process's RUSAGE_CHILDREN: a fork server's
        # workers would report the server's pid.
        params = sweep_toys.ToyParams(n_points=2)
        runner = SweepRunner(jobs=2, backend="process")
        payload = runner.run(sweep_toys.PROBE, params, seed=3)
        assert {item["ppid"] for item in payload} == {os.getpid()}


class _RegisteredAtRunTime(sweep_toys.EchoExperiment):
    id = "toy-registered-at-run-time"


class TestRunTimeRegistration:
    """A registration made after import reaches no worker; it says so."""

    @pytest.fixture
    def experiment(self):
        experiment = _RegisteredAtRunTime()
        registry._REGISTRY[experiment.id] = experiment
        yield experiment
        registry._REGISTRY.pop(experiment.id, None)

    @pytest.mark.filterwarnings("ignore:.*sweep point.*failed:RuntimeWarning")
    def test_the_worker_failure_says_why_under_process(self, experiment):
        runner = SweepRunner(
            jobs=2, backend="process", retry_policy=RetryPolicy(max_attempts=1)
        )
        runner.run(experiment, sweep_toys.ToyParams(n_points=1), seed=3)
        [failure] = runner.last_stats.failures
        assert failure.error.startswith(
            "KeyError: \"unknown experiment 'toy-registered-at-run-time'; known: "
        )
        assert failure.error.endswith(
            "(a pool worker is a fresh interpreter and sees only experiments "
            "registered when their module is imported: register it at import "
            "time, or pass a module:attribute id)\""
        )

    def test_the_sweep_still_succeeds_under_serial(self, experiment):
        payload = _serial(experiment, sweep_toys.ToyParams(n_points=2))
        assert [item["label"] for item in payload] == ["p0", "p1"]
        assert registry.get(experiment.id) is experiment
