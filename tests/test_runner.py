"""Tests for the sweep engine: seeds, cache, registry, determinism."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.experiments import registry
from repro.experiments.base import Experiment, Point
from repro.experiments.store import to_jsonable
from repro.runner import ResultCache, RetryPolicy, SweepRunner
from repro.sim.randomness import RandomStreams, _stable_hash, derive_seed
from tests.helpers import canonical_ids


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------

class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "fig8/sw4-r0") == derive_seed(1, "fig8/sw4-r0")

    def test_names_decorrelate(self):
        seeds = {derive_seed(1, f"fig8/sw4-r{i}") for i in range(50)}
        assert len(seeds) == 50

    def test_root_seed_decorrelates(self):
        assert derive_seed(1, "fig8/p") != derive_seed(2, "fig8/p")

    def test_range(self):
        for i in range(20):
            s = derive_seed(i, "x")
            assert 0 <= s < 2**63

    def test_matches_stream_spawn(self):
        # One scheme: a derived seed is its named stream's own seed state.
        seq = np.random.SeedSequence(7, spawn_key=(_stable_hash("fig4/run"),))
        low, high = (int(w) for w in seq.generate_state(2))
        assert derive_seed(7, "fig4/run") == (low | high << 32) & (2**63 - 1)
        stream = np.random.Generator(np.random.PCG64(seq))
        assert RandomStreams(7).get("fig4/run").random(4) == list(stream.random(4))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_round_trip_every_id(self):
        for experiment_id in registry.ids():
            experiment = registry.get(experiment_id)
            assert experiment.id in canonical_ids()
            # the alias and the canonical id resolve to the same object
            assert registry.get(experiment.id) is experiment

    def test_aliases_resolve_to_same_instance(self):
        assert registry.get("fig2") is registry.get("fig1")
        assert registry.get("fig6") is registry.get("fig4")
        assert registry.get("fig7") is registry.get("fig5")
        assert registry.get("table1") is registry.get("fig12")

    def test_unknown_id_raises_with_known_list(self):
        with pytest.raises(KeyError, match="fig8"):
            registry.get("fig99")

    def test_every_experiment_has_contract_surface(self):
        for experiment_id in canonical_ids():
            experiment = registry.get(experiment_id)
            assert experiment.title
            assert experiment.params_cls is not None
            params = experiment.make_params("quick")
            points = experiment.points(params)
            assert points, experiment_id
            labels = [p.label for p in points]
            assert len(set(labels)) == len(labels), experiment_id
            # points and params must survive the process boundary
            pickle.dumps((experiment.id, params, points))

    def test_make_params_rejects_bad_preset(self):
        with pytest.raises(ValueError, match="preset"):
            registry.get("fig8").make_params("huge")


# ----------------------------------------------------------------------
# A tiny in-test experiment for cache/failure plumbing
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _ToyParams:
    protocol: str = "reno"
    scale: int = 2

    @classmethod
    def quick(cls, protocol="reno", **overrides):
        return cls(protocol=protocol, **overrides)


class _ToyExperiment(Experiment):
    id = "toy"
    title = "test double"
    params_cls = _ToyParams

    def __init__(self):
        self.calls = 0

    def points(self, params):
        return [Point(f"p{i}", {"i": i}) for i in range(3)]

    def run_point(self, params, point, seed):
        self.calls += 1
        return {"i": point.kwargs["i"], "scale": params.scale, "seed": seed}


class _FailingExperiment(_ToyExperiment):
    id = "toy-fail"

    def run_point(self, params, point, seed):
        self.calls += 1
        if point.kwargs["i"] == 1:
            raise RuntimeError("boom")
        return point.kwargs["i"]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("toy", _ToyParams(), Point("p0"), 123)
        assert cache.get(key) is None
        cache.put(key, {"x": 1.25})
        assert cache.get(key) == {"x": 1.25}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_key_changes_with_params(self, tmp_path):
        cache = ResultCache(tmp_path)
        k1 = cache.key("toy", _ToyParams(scale=2), Point("p0"), 1)
        k2 = cache.key("toy", _ToyParams(scale=3), Point("p0"), 1)
        assert k1 != k2

    def test_key_changes_with_point_seed_and_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key("toy", _ToyParams(), Point("p0"), 1)
        assert base != cache.key("toy", _ToyParams(), Point("p1"), 1)
        assert base != cache.key("toy", _ToyParams(), Point("p0"), 2)
        assert base != cache.key("toy", _ToyParams(), Point("p0"), 1, version="9.9")
        assert base == cache.key("toy", _ToyParams(), Point("p0"), 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("toy", _ToyParams(), Point("p0"), 1)
        cache.put(key, "value")
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get(key) is None
        assert not path.exists()  # corrupt entries are evicted
        # Corruption is counted apart from ordinary misses, so a
        # damaged cache directory never masquerades as a cold cache.
        assert cache.corrupt == 1
        assert cache.misses == 1

    def test_float_round_trip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = {"f": 0.1 + 0.2, "g": 1e-300}
        key = cache.key("toy", _ToyParams(), Point("p0"), 1)
        cache.put(key, value)
        assert cache.get(key) == value


class TestSweepRunner:
    def test_inline_run_reduces_in_point_order(self):
        experiment = _ToyExperiment()
        payload = SweepRunner().run(experiment, _ToyParams(), seed=5)
        assert [r["i"] for r in payload] == [0, 1, 2]
        assert [r["seed"] for r in payload] == [
            derive_seed(5, f"toy/p{i}") for i in range(3)
        ]

    def test_cache_round_trip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        experiment = _ToyExperiment()
        runner = SweepRunner(cache=cache)
        first = runner.run(experiment, _ToyParams(), seed=5)
        assert runner.last_stats.executed == 3
        assert runner.last_stats.cache_hits == 0
        again = runner.run(experiment, _ToyParams(), seed=5)
        assert again == first
        assert runner.last_stats.executed == 0
        assert runner.last_stats.cache_hits == 3
        assert experiment.calls == 3  # second run never re-executed

    def test_corrupt_cache_entries_surface_in_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        experiment = _ToyExperiment()
        runner = SweepRunner(cache=cache)
        runner.run(experiment, _ToyParams(), seed=5)
        # Corrupt one stored entry: the re-run must classify it (warn +
        # count) instead of letting it look like a plain cache miss.
        key = cache.key(
            "toy", _ToyParams(), Point("p0", {"i": 0}),
            derive_seed(5, "toy/p0"),
        )
        cache._path(key).write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            runner.run(experiment, _ToyParams(), seed=5)
        assert runner.last_stats.cache_corrupt == 1
        assert runner.last_stats.cache_hits == 2
        assert runner.last_stats.executed == 1  # the damaged point re-ran

    def test_cache_write_failure_warns_and_counts(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        experiment = _ToyExperiment()
        runner = SweepRunner(cache=cache)

        def refuse(key, value):
            raise OSError("disk full")

        monkeypatch.setattr(cache, "put", refuse)
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            payload = runner.run(experiment, _ToyParams(), seed=5)
        # The sweep's own results are intact; only reuse is lost.
        assert [r["i"] for r in payload] == [0, 1, 2]
        assert runner.last_stats.cache_write_errors == 3

    def test_cache_invalidated_by_params_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        experiment = _ToyExperiment()
        runner = SweepRunner(cache=cache)
        runner.run(experiment, _ToyParams(scale=2), seed=5)
        runner.run(experiment, _ToyParams(scale=3), seed=5)
        assert runner.last_stats.cache_hits == 0
        assert experiment.calls == 6

    def test_failed_point_degrades_and_warns(self):
        experiment = _FailingExperiment()
        runner = SweepRunner(retry_policy=RetryPolicy(max_attempts=2))
        with pytest.warns(RuntimeWarning, match="failed"):
            payload = runner.run(experiment, _ToyParams(), seed=0)
        assert payload == [0, 2]  # default reduce drops the None
        failures = runner.last_stats.failures
        assert [f.label for f in failures] == ["p1"]
        assert failures[0].attempts == 2  # original try + one retry

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        experiment = _FailingExperiment()
        runner = SweepRunner(cache=cache, retry_policy=RetryPolicy(max_attempts=1))
        with pytest.warns(RuntimeWarning):
            runner.run(experiment, _ToyParams(), seed=0)
        with pytest.warns(RuntimeWarning):
            runner.run(experiment, _ToyParams(), seed=0)
        assert runner.last_stats.cache_hits == 2  # only the successes hit

    def test_duplicate_labels_rejected(self):
        class Duplicated(_ToyExperiment):
            def points(self, params):
                return [Point("same"), Point("same")]

        with pytest.raises(ValueError, match="duplicate"):
            SweepRunner().run(Duplicated(), _ToyParams())

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)
        with pytest.raises(ValueError):
            SweepRunner(timeout=0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 1e300])
    def test_timeout_outside_the_waitable_range_rejected(self, timeout):
        # NaN compares false to everything, so `timeout <= 0` let it in;
        # inf and 1e300 overflow the futures wait.
        with pytest.raises(ValueError, match="timeout must be > 0"):
            SweepRunner(timeout=timeout)


# ----------------------------------------------------------------------
# Worker-count determinism on a real registered experiment
# ----------------------------------------------------------------------

class TestWorkerCountDeterminism:
    @pytest.fixture(scope="class")
    def incast_task(self):
        experiment = registry.get("incast")
        params = experiment.make_params(
            "quick", protocol="reno", sender_counts=(2, 3), block_bytes=16_384
        )
        return experiment, params

    def test_parallel_payload_is_bit_identical_to_inline(self, incast_task):
        experiment, params = incast_task
        inline = SweepRunner(jobs=1).run(experiment, params, seed=1)
        pooled = SweepRunner(jobs=2).run(experiment, params, seed=1)
        assert to_jsonable(pooled) == to_jsonable(inline)

    def test_seed_changes_are_visible(self):
        experiment = registry.get("fig1")
        params = experiment.make_params("quick", duration=2.0)
        one = SweepRunner().run(experiment, params, seed=1)
        two = SweepRunner().run(experiment, params, seed=2)
        assert one != two
