"""Crash-safety tests: the checkpoint journal, resume, graceful
interrupts, and the straggler-race determinism fix.

The headline guarantees under test:

* every completed point is durable (flush + fsync) the moment it lands,
  so a ``kill -9`` mid-sweep loses at most the in-flight point — proven
  here by actually SIGKILLing a subprocess mid-sweep and resuming;
* ``resume=True`` replays journalled points and executes only the
  remainder, with payloads identical to an uninterrupted run;
* when a timed-out straggler and its retry both complete, the
  earliest-submitted success wins deterministically and the extra
  result is counted in ``SweepStats.duplicate_results``;
* ``KeyboardInterrupt`` raises :class:`SweepInterrupted` carrying the
  partial payloads, with everything completed already on disk.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.base import Experiment, Point
from repro.runner import (
    ResultCache,
    RetryPolicy,
    SweepCheckpoint,
    SweepInterrupted,
    SweepRunner,
)
from repro.runner.checkpoint import digest_params
from repro.sim.randomness import derive_seed
from tests.helpers import ThreadPoolBackend


@dataclasses.dataclass
class _ToyParams:
    protocol: str = "reno"
    scale: int = 2

    @classmethod
    def quick(cls, protocol="reno", **overrides):
        return cls(protocol=protocol, **overrides)


class _ToyExperiment(Experiment):
    id = "toy-ckpt"
    title = "checkpoint test double"
    params_cls = _ToyParams

    def __init__(self):
        self.calls = 0

    def points(self, params):
        return [Point(f"p{i}", {"i": i}) for i in range(3)]

    def run_point(self, params, point, seed):
        self.calls += 1
        return {"i": point.kwargs["i"], "seed": seed, "f": 0.1 + 0.2}


class TestSweepCheckpoint:
    def test_record_load_round_trip_is_exact(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "journal.jsonl")
        value = {"goodput": 0.1 + 0.2, "tiny": 1e-300, "n": 7}
        ckpt.record("toy", "p0", 123, value)
        ckpt.close()
        loaded = SweepCheckpoint(tmp_path / "journal.jsonl").load()
        assert loaded == {("toy", "p0", 123, ""): value}

    def test_load_missing_file_is_empty(self, tmp_path):
        assert SweepCheckpoint(tmp_path / "nope.jsonl").load() == {}

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ckpt = SweepCheckpoint(path)
        ckpt.record("toy", "p0", 1, "ok")
        ckpt.record("toy", "p1", 1, "also ok")
        ckpt.close()
        # Simulate a crash mid-write: chop the last line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - 20])
        loaded = SweepCheckpoint(path).load()
        assert loaded == {("toy", "p0", 1, ""): "ok"}

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ckpt = SweepCheckpoint(path)
        ckpt.record("toy", "p0", 1, "ok")
        ckpt.close()
        with path.open("a") as fh:
            fh.write("not json at all\n")
            fh.write('{"experiment": "toy", "label": "p1"}\n')  # no result
            fh.write('{"experiment": "toy", "label": "p2", "seed": 1, '
                     '"result": "bm90IGEgcGlja2xl"}\n')  # not a pickle
        assert SweepCheckpoint(path).load() == {("toy", "p0", 1, ""): "ok"}

    def test_last_record_wins_for_repeated_key(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ckpt = SweepCheckpoint(path)
        ckpt.record("toy", "p0", 1, "stale")
        ckpt.record("toy", "p0", 1, "fresh")
        ckpt.close()
        assert SweepCheckpoint(path).load() == {("toy", "p0", 1, ""): "fresh"}

    def test_reset_truncates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ckpt = SweepCheckpoint(path)
        ckpt.record("toy", "p0", 1, "old")
        ckpt.reset()
        assert SweepCheckpoint(path).load() == {}

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepCheckpoint(path) as ckpt:
            ckpt.record("toy", "p0", 1, "ok")
        assert ckpt._fh is None
        assert SweepCheckpoint(path).load() == {("toy", "p0", 1, ""): "ok"}


class TestRunnerCheckpointing:
    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="resume"):
            SweepRunner(resume=True)

    def test_fresh_run_journals_every_point(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "j.jsonl")
        runner = SweepRunner(checkpoint=ckpt)
        runner.run(_ToyExperiment(), _ToyParams(), seed=5)
        assert ckpt.records_written == 3
        keys = set(ckpt.load())
        digest = digest_params(_ToyParams())
        assert keys == {
            ("toy-ckpt", f"p{i}", derive_seed(5, f"toy-ckpt/p{i}"), digest)
            for i in range(3)
        }

    def test_resume_replays_without_executing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = SweepRunner(checkpoint=SweepCheckpoint(path))
        experiment = _ToyExperiment()
        payload = first.run(experiment, _ToyParams(), seed=5)

        resumed_exp = _ToyExperiment()
        second = SweepRunner(checkpoint=SweepCheckpoint(path), resume=True)
        again = second.run(resumed_exp, _ToyParams(), seed=5)
        assert again == payload
        assert resumed_exp.calls == 0
        assert second.last_stats.resumed == 3
        assert second.last_stats.executed == 0

    def test_partial_journal_executes_only_the_remainder(self, tmp_path):
        path = tmp_path / "j.jsonl"
        seed0 = derive_seed(5, "toy-ckpt/p0")
        with SweepCheckpoint(path) as ckpt:
            ckpt.record("toy-ckpt", "p0", seed0,
                        {"i": 0, "seed": seed0, "f": 0.1 + 0.2},
                        params_digest=digest_params(_ToyParams()))
        experiment = _ToyExperiment()
        runner = SweepRunner(checkpoint=SweepCheckpoint(path), resume=True)
        payload = runner.run(experiment, _ToyParams(), seed=5)
        assert experiment.calls == 2  # p1 and p2 only
        assert runner.last_stats.resumed == 1
        assert [r["i"] for r in payload] == [0, 1, 2]

    def test_journal_keyed_on_seed(self, tmp_path):
        """A journal recorded under another root seed resumes nothing."""
        path = tmp_path / "j.jsonl"
        SweepRunner(checkpoint=SweepCheckpoint(path)).run(
            _ToyExperiment(), _ToyParams(), seed=5
        )
        experiment = _ToyExperiment()
        runner = SweepRunner(checkpoint=SweepCheckpoint(path), resume=True)
        runner.run(experiment, _ToyParams(), seed=6)
        assert runner.last_stats.resumed == 0
        assert experiment.calls == 3

    def test_journal_keyed_on_version(self, tmp_path, monkeypatch):
        """A journal another package version wrote resumes nothing: its
        points may come from another random stream."""
        path = tmp_path / "j.jsonl"
        monkeypatch.setattr("repro.__version__", "0.old")
        SweepRunner(checkpoint=SweepCheckpoint(path)).run(
            _ToyExperiment(), _ToyParams(), seed=5
        )
        monkeypatch.setattr("repro.__version__", "0.new")
        experiment = _ToyExperiment()
        runner = SweepRunner(checkpoint=SweepCheckpoint(path), resume=True)
        runner.run(experiment, _ToyParams(), seed=5)
        assert runner.last_stats.resumed == 0
        assert experiment.calls == 3

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepCheckpoint(path) as stale:
            stale.record("toy-ckpt", "p0", 1, "poison")
        runner = SweepRunner(checkpoint=SweepCheckpoint(path))
        runner.run(_ToyExperiment(), _ToyParams(), seed=5)
        assert "poison" not in [
            v for v in SweepCheckpoint(path).load().values()
        ]

    def test_cache_hits_are_journalled_too(self, tmp_path):
        """--resume must not depend on the shared cache keeping entries."""
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "j.jsonl"
        warm = SweepRunner(cache=cache)
        warm.run(_ToyExperiment(), _ToyParams(), seed=5)

        hitting = SweepRunner(cache=cache, checkpoint=SweepCheckpoint(path))
        payload = hitting.run(_ToyExperiment(), _ToyParams(), seed=5)
        assert hitting.last_stats.cache_hits == 3

        experiment = _ToyExperiment()
        resumed = SweepRunner(checkpoint=SweepCheckpoint(path), resume=True)
        again = resumed.run(experiment, _ToyParams(), seed=5)  # no cache
        assert again == payload
        assert experiment.calls == 0
        assert resumed.last_stats.resumed == 3

    def test_second_run_many_on_one_runner_appends(self, tmp_path):
        """An ``all``-style sequence shares one journal: only the first
        (non-resume) call truncates it."""
        path = tmp_path / "j.jsonl"
        runner = SweepRunner(checkpoint=SweepCheckpoint(path))

        class Other(_ToyExperiment):
            id = "toy-ckpt-b"

        runner.run(_ToyExperiment(), _ToyParams(), seed=5)
        runner.run(Other(), _ToyParams(), seed=5)
        experiments = {key[0] for key in SweepCheckpoint(path).load()}
        assert experiments == {"toy-ckpt", "toy-ckpt-b"}

    def test_protocol_variants_do_not_collide_in_the_journal(self, tmp_path):
        """Protocol variants of one figure share the experiment id, the
        point labels, AND the per-point seeds (matched draws are a
        feature), so the journal key must fold in the params digest —
        without it the later variant's records overwrite the earlier
        one's and a resume replays the wrong numbers."""

        class Variant(_ToyExperiment):
            def run_point(self, params, point, seed):
                self.calls += 1
                return {"i": point.kwargs["i"], "protocol": params.protocol}

        path = tmp_path / "j.jsonl"
        first = SweepRunner(checkpoint=SweepCheckpoint(path))
        payloads = first.run_many(
            [(Variant(), _ToyParams(protocol="reno")),
             (Variant(), _ToyParams(protocol="trim"))],
            seed=5,
        )
        assert len(SweepCheckpoint(path).load()) == 6  # no overwrites

        reno, trim = Variant(), Variant()
        second = SweepRunner(checkpoint=SweepCheckpoint(path), resume=True)
        again = second.run_many(
            [(reno, _ToyParams(protocol="reno")),
             (trim, _ToyParams(protocol="trim"))],
            seed=5,
        )
        assert second.last_stats.resumed == 6
        assert second.last_stats.executed == 0
        assert reno.calls == 0 and trim.calls == 0
        assert again == payloads
        assert [r["protocol"] for r in again[0]] == ["reno"] * 3
        assert [r["protocol"] for r in again[1]] == ["trim"] * 3


class _InterruptingExperiment(_ToyExperiment):
    id = "toy-intr"

    def run_point(self, params, point, seed):
        if point.kwargs["i"] == 2:
            raise KeyboardInterrupt
        return super().run_point(params, point, seed)


class TestGracefulInterrupt:
    def test_inline_interrupt_raises_sweep_interrupted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        runner = SweepRunner(checkpoint=SweepCheckpoint(path))
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(_InterruptingExperiment(), _ToyParams(), seed=5)
        interrupt = excinfo.value
        assert isinstance(interrupt, KeyboardInterrupt)
        assert interrupt.stats.interrupted
        assert interrupt.stats.executed == 2
        # The default reduce drops the hole, so partials come through.
        assert [r["i"] for r in interrupt.payloads[0]] == [0, 1]
        # Everything completed before Ctrl-C is already durable.
        assert len(SweepCheckpoint(path).load()) == 2

    def test_interrupted_journal_resumes_cleanly(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with pytest.raises(SweepInterrupted):
            SweepRunner(checkpoint=SweepCheckpoint(path)).run(
                _InterruptingExperiment(), _ToyParams(), seed=5
            )
        class Recovered(_ToyExperiment):  # same id/points, no interrupt
            id = "toy-intr"

        experiment = Recovered()
        runner = SweepRunner(checkpoint=SweepCheckpoint(path), resume=True)
        payload = runner.run(experiment, _ToyParams(), seed=5)
        assert runner.last_stats.resumed == 2
        assert experiment.calls == 1  # only the interrupted point
        baseline = SweepRunner().run(Recovered(), _ToyParams(), seed=5)
        assert payload == baseline

    def test_reduce_failure_on_partials_degrades_to_none(self):
        class StrictReduce(_InterruptingExperiment):
            id = "toy-intr-strict"

            def reduce(self, params, points, results):
                if any(r is None for r in results):
                    raise RuntimeError("holes")
                return results

        with pytest.raises(SweepInterrupted) as excinfo:
            SweepRunner().run(StrictReduce(), _ToyParams(), seed=5)
        assert excinfo.value.payloads == [None]


class _StragglerExperiment(Experiment):
    """First attempt blocks until its retry has finished; both succeed."""

    id = "toy-straggler"
    title = "straggler race double"
    params_cls = _ToyParams

    def __init__(self):
        self.lock = threading.Lock()
        self.calls = 0
        self.retry_submitted = threading.Event()

    def points(self, params):
        return [Point("p0", {"i": 0})]

    def run_point(self, params, point, seed):
        with self.lock:
            self.calls += 1
            attempt = self.calls
        if attempt == 1:
            # The straggler: outlive the timeout, then finish quickly
            # once the retry exists so both results are in play.
            assert self.retry_submitted.wait(timeout=30.0)
            return "attempt-1"
        self.retry_submitted.set()
        time.sleep(0.3)  # let the straggler finish first
        return "attempt-2"


class TestStragglerRace:
    @pytest.fixture
    def straggler(self):
        experiment = _StragglerExperiment()
        registry._REGISTRY[experiment.id] = experiment
        yield experiment
        registry._REGISTRY.pop(experiment.id, None)

    def test_earliest_submission_wins_and_duplicate_is_counted(self, straggler):
        # Threads instead of processes so the experiment's in-memory
        # events synchronize attempts; jobs=2 with a second trivial
        # point forces the pool path.
        runner = SweepRunner(
            jobs=2,
            timeout=0.1,
            retry_policy=RetryPolicy(max_attempts=2),
            backend=ThreadPoolBackend(),
        )

        class TwoPoints(_StragglerExperiment):
            def points(self, params):
                return [Point("p0", {"i": 0}), Point("p1", {"i": 1})]

            def run_point(self, params, point, seed):
                if point.label == "p1":
                    return "easy"
                return _StragglerExperiment.run_point(self, params, point, seed)

        experiment = TwoPoints()
        registry._REGISTRY[experiment.id] = experiment
        payload = runner.run(experiment, _ToyParams(), seed=0)
        # Deterministic keep-first: the straggler was submitted first,
        # so its result wins even though the retry also succeeded.
        assert payload == ["attempt-1", "easy"]
        assert experiment.calls == 2
        stats = runner.last_stats
        assert stats.duplicate_results == 1
        assert stats.executed == 2
        assert stats.failures == []

    def test_pool_runs_are_deterministic_across_repeats(self, straggler):
        payloads = set()
        for _ in range(3):
            experiment = _StragglerExperiment()
            registry._REGISTRY[experiment.id] = experiment
            runner = SweepRunner(
                jobs=2,
                timeout=0.1,
                retry_policy=RetryPolicy(max_attempts=2),
                backend=ThreadPoolBackend(),
            )

            class TwoPoints(type(experiment)):
                def points(self, params):
                    return [Point("p0", {"i": 0}), Point("p1", {"i": 1})]

                def run_point(self, params, point, seed):
                    if point.label == "p1":
                        return "easy"
                    return _StragglerExperiment.run_point(
                        self, params, point, seed
                    )

            experiment.__class__ = TwoPoints
            payloads.add(tuple(runner.run(experiment, _ToyParams(), seed=0)))
        assert payloads == {("attempt-1", "easy")}


_KILL_SCRIPT = """
import dataclasses, json, os, sys, time

from repro.experiments.base import Experiment, Point
from repro.runner import SweepCheckpoint, SweepRunner


@dataclasses.dataclass
class Params:
    protocol: str = "reno"


class Sleepy(Experiment):
    id = "toy-kill"
    title = "kill -9 target"
    params_cls = Params

    def points(self, params):
        return [Point(f"p{i}", {"i": i}) for i in range(3)]

    def run_point(self, params, point, seed):
        if point.kwargs["i"] >= 1 and os.environ.get("SLOW") == "1":
            time.sleep(60.0)  # parent SIGKILLs us here
        return {"i": point.kwargs["i"], "seed": seed, "f": 0.1 + 0.2}


runner = SweepRunner(
    checkpoint=SweepCheckpoint(sys.argv[1]),
    resume=os.environ.get("RESUME") == "1",
)
payload = runner.run(Sleepy(), Params(), seed=5)
print(json.dumps({
    "payload": payload,
    "resumed": runner.last_stats.resumed,
    "executed": runner.last_stats.executed,
}))
"""


class TestKillDashNine:
    def test_sigkill_mid_sweep_then_resume_matches_uninterrupted(
        self, tmp_path
    ):
        script = tmp_path / "sweep.py"
        script.write_text(_KILL_SCRIPT)
        journal = tmp_path / "journal.jsonl"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
        )

        # Run 1: p0 completes and is journalled, p1 sleeps; SIGKILL it.
        proc = subprocess.Popen(
            [sys.executable, str(script), str(journal)],
            env={**env, "SLOW": "1"},
            stdout=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                # The journal opens with a backend header line; wait for
                # an actual point record before pulling the trigger.
                if journal.exists() and '"result"' in journal.read_text():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("first point never reached the journal")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30.0)
        assert proc.returncode == -signal.SIGKILL
        journalled = SweepCheckpoint(journal).load()
        assert [(key[0], key[1]) for key in journalled] == [("toy-kill", "p0")]
        assert len(journalled) == 1  # p1 died mid-run, p2 never started

        # Run 2: resume — only the unfinished points execute.
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

        # Reference: an uninterrupted run with its own journal.
        fresh = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "fresh.jsonl")],
            env={**env, "SLOW": "0"},
            stdout=subprocess.PIPE,
            check=True,
            timeout=60.0,
        )
        assert outcome["payload"] == json.loads(fresh.stdout)["payload"]
