"""Tests for the steady-state fluid model (Section III.B)."""

import pytest

from repro.core import kguide
from repro.core.model import SteadyStateModel

C = 1e9 / (8 * 1460)
D = 200e-6


class TestValidation:
    def test_rejects_zero_flows(self):
        with pytest.raises(ValueError):
            SteadyStateModel(C, D, 0, kguide.k_threshold(C, D))

    def test_rejects_k_below_d(self):
        with pytest.raises(ValueError):
            SteadyStateModel(C, D, 5, D / 2)

    def test_rejects_zero_rounds(self):
        model = SteadyStateModel(C, D, 5, kguide.k_threshold(C, D))
        with pytest.raises(ValueError):
            model.run(0)


class TestSteadyState:
    def test_guideline_k_keeps_queue_positive(self):
        """The Eq. 22 K preserves 100% utilization: queue never hits 0."""
        for n in (2, 5, 10, 20):
            k = kguide.k_threshold(C, D) * 1.05
            trace = SteadyStateModel(C, D, n, k).run(100)
            assert trace.utilization_ok, f"underflow with N={n}"
            assert trace.min_queue > 0

    def test_queue_near_qmax_bound(self):
        """The dynamic model's peak stays close to the paper's one-round
        Q_max bound (the dynamics add a small reaction-delay overshoot
        the one-shot argument does not model)."""
        n = 10
        k = kguide.k_threshold(C, D) * 1.05
        trace = SteadyStateModel(C, D, n, k).run(100)
        bound = kguide.max_queue_pkts(C, k, D, n)
        assert trace.max_queue <= bound * 1.3

    def test_trace_lengths_match_rounds(self):
        trace = SteadyStateModel(C, D, 3, kguide.k_threshold(C, D)).run(25)
        assert len(trace.rounds) == 25
        assert len(trace.queue_pkts) == 25
        assert len(trace.total_window) == 25

    def test_window_oscillates_around_pipe(self):
        # Use a larger D so N·min_cwnd stays well below the C·K pipe.
        d = 1e-3
        k = kguide.k_threshold(C, d) * 1.05
        trace = SteadyStateModel(C, d, 5, k).run(200)
        mean_window = sum(trace.total_window) / len(trace.total_window)
        assert mean_window == pytest.approx(C * k, rel=0.25)
