"""Tests for the competitor-protocol matrix experiment."""

import math

import pytest

from repro.experiments import registry
from repro.experiments.matrix import (
    MatrixCase,
    MatrixParams,
    run_matrix_point,
)
from repro.experiments.store import to_jsonable
from repro.runner import SweepRunner
from repro.runner.checkpoint import SweepCheckpoint

TINY = dict(
    n_senders=3,
    block_bytes=8 * 1024,
    waves=1,
    load_blocks=2,
    deadline=2.0,
)


def tiny_params(protocol="trim", **overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return MatrixParams.quick(protocol, **merged)


class TestGrid:
    def test_points_cover_full_grid(self):
        exp = registry.get("matrix")
        params = MatrixParams(protocol="trim")
        points = exp.points(params)
        assert len(points) == 3 * 2 * 2  # scenario x buffer x qdisc
        assert len({p.label for p in points}) == len(points)
        assert "incast-b8-droptail" in {p.label for p in points}

    def test_quick_preset_shrinks_grid(self):
        params = MatrixParams.quick("trim")
        assert "load" not in params.scenarios

    def test_partner_defaults_head_to_head(self):
        assert MatrixParams.quick("trim").partner() == "reno"
        assert MatrixParams.quick("tinybuffer").partner() == "trim"
        assert MatrixParams.quick("tracks").partner() == "trim"
        assert MatrixParams.quick("tracks", baseline="cubic").partner() == "cubic"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_matrix_point(tiny_params(), "teleport", 8, "droptail", 1)

    def test_unknown_qdisc_rejected(self):
        with pytest.raises(ValueError):
            run_matrix_point(tiny_params(), "incast", 8, "codel", 1)


class TestScenarios:
    @pytest.mark.parametrize("qdisc", ["droptail", "fairq"])
    def test_incast_completes_all_blocks(self, qdisc):
        case = run_matrix_point(tiny_params(), "incast", 64, qdisc, 1)
        assert isinstance(case, MatrixCase)
        assert case.completed == case.offered == 3
        assert case.goodput_bps > 0
        assert not math.isnan(case.fct_mean)
        assert math.isnan(case.share)  # single-protocol cell

    def test_coexist_measures_share_and_fairness(self):
        case = run_matrix_point(
            tiny_params("tracks"), "coexist", 64, "fairq", 1
        )
        assert 0.0 < case.share < 1.0
        assert 0.0 < case.jain <= 1.0
        assert case.completed > 0

    def test_load_runs_open_loop_arrivals(self):
        case = run_matrix_point(tiny_params(), "load", 64, "droptail", 1)
        assert case.offered == 2 * 3  # load_blocks x senders
        assert case.completed == case.offered

    def test_fairq_cell_marks_ecn_capable_flows(self):
        # A shallow fairq cell with an ECT protocol must exercise the
        # fair-share feedback path (tinybuffer marks ECT by default).
        case = run_matrix_point(
            tiny_params("tinybuffer", n_senders=4, block_bytes=64 * 1024),
            "coexist",
            8,
            "fairq",
            1,
        )
        assert case.marked_packets > 0

    def test_same_seed_reproduces_load_cell(self):
        a = run_matrix_point(tiny_params(), "load", 8, "droptail", 7)
        b = run_matrix_point(tiny_params(), "load", 8, "droptail", 7)
        assert to_jsonable(a) == to_jsonable(b)


class TestInvariants:
    def test_fairq_cell_passes_runtime_invariants(self, monkeypatch):
        # Queue conservation (enqueued == dequeued + evicted + resident)
        # is swept by the InvariantMonitor every check_every_events (256)
        # events and when run() returns, when REPRO_CHECK_INVARIANTS=1;
        # LQD evictions must keep it balanced.
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        case = run_matrix_point(
            tiny_params(n_senders=4), "incast", 8, "fairq", 3
        )
        assert case.completed == case.offered


class TestBackendEquivalence:
    """One matrix grid point is byte-identical across every backend."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        return self._sweep("serial", tmp_path_factory.mktemp("mx-ref"))

    @staticmethod
    def _sweep(backend, tmp_path):
        experiment = registry.get("matrix")
        params = experiment.make_params(
            "quick",
            protocol="tinybuffer",
            scenarios=("incast",),
            buffers=(8,),
            qdiscs=("droptail", "fairq"),
            **{k: v for k, v in TINY.items() if k not in ("load_blocks",)},
        )
        journal = tmp_path / f"{backend}.jsonl"
        runner = SweepRunner(
            jobs=2,
            cache=None,
            backend=backend,
            checkpoint=SweepCheckpoint(journal),
        )
        payload = runner.run(experiment, params, seed=11)
        lines = sorted(
            line
            for line in journal.read_text().splitlines()
            if line and '"result"' in line
        )
        return payload, lines, runner.last_stats

    @pytest.mark.parametrize("backend", ["process"])
    def test_payloads_and_journals_identical(self, backend, reference, tmp_path):
        ref_payload, ref_journal, _ = reference
        payload, journal, stats = self._sweep(backend, tmp_path)
        assert to_jsonable(payload) == to_jsonable(ref_payload)
        assert journal == ref_journal
        assert stats.backend == backend
        assert stats.failures == []
