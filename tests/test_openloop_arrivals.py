"""Property tests for the open-loop arrival processes.

The workload-realism contract, pinned with hypothesis:

* empirical arrival rates converge to the process's ``mean_rate()``;
* MMPP inter-arrival variability (CV) strictly exceeds Poisson's;
* sampling is a pure function of (spec, seed) — bit-identical lists;
* the ``--arrivals`` grammar round-trips through ``to_string()``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.http.openloop import (
    ArrivalProcess,
    DiurnalArrivals,
    MmppArrivals,
    PoissonArrivals,
    parse_arrivals,
)

RATES = st.floats(min_value=5.0, max_value=500.0)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _cv(times):
    gaps = np.diff(np.asarray(times))
    return float(np.std(gaps) / np.mean(gaps))


class TestRateConvergence:
    @settings(max_examples=200, deadline=None)
    @given(rate=RATES, seed=SEEDS)
    def test_property_poisson_rate_converges(self, rate, seed):
        """Empirical rate over a long horizon lands near λ.

        A Poisson count over horizon T has σ = sqrt(λT); eight sigma
        of slack keeps the 200-example run deterministic-stable while
        still catching any systematic rate bias.
        """
        horizon = max(2.0, 400.0 / rate)
        times = PoissonArrivals(rate).sample_times(
            np.random.default_rng(seed), horizon
        )
        expected = rate * horizon
        assert abs(len(times) - expected) <= 8.0 * math.sqrt(expected) + 1

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS)
    def test_property_mmpp_rate_converges(self, seed):
        process = MmppArrivals(
            rate_on=400.0, rate_off=20.0, mean_on=0.05, mean_off=0.15
        )
        horizon = 20.0
        expected = process.mean_rate() * horizon
        # MMPP counts are over-dispersed relative to Poisson: a single
        # 20 s draw has σ ≈ 9% of the mean, so a one-draw 30% band is
        # only ~3.4σ and fails for unlucky seeds.  Averaging five
        # independent draws cuts σ to ~4%, making the same 30% band a
        # ~7.6σ bound — deterministic-stable yet still rate-pinning.
        counts = [
            len(process.sample_times(np.random.default_rng([seed, k]), horizon))
            for k in range(5)
        ]
        mean_count = sum(counts) / len(counts)
        assert abs(mean_count - expected) <= 0.30 * expected

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS)
    def test_property_diurnal_rate_converges(self, seed):
        process = DiurnalArrivals(base=50.0, peak=400.0, period=1.0)
        horizon = 10.0  # whole periods, so mean_rate() is exact
        times = process.sample_times(np.random.default_rng(seed), horizon)
        expected = process.mean_rate() * horizon
        assert abs(len(times) - expected) <= 8.0 * math.sqrt(expected) + 1


class TestBurstiness:
    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS)
    def test_property_mmpp_cv_exceeds_poisson(self, seed):
        """ON/OFF modulation makes inter-arrivals over-dispersed: the
        MMPP coefficient of variation beats the same-mean Poisson's."""
        rng = np.random.default_rng(seed)
        mmpp = MmppArrivals(
            rate_on=500.0, rate_off=10.0, mean_on=0.05, mean_off=0.25
        )
        mmpp_times = mmpp.sample_times(rng, 20.0)
        poisson_times = PoissonArrivals(mmpp.mean_rate()).sample_times(
            np.random.default_rng(seed), 20.0
        )
        assert len(mmpp_times) > 100 and len(poisson_times) > 100
        assert _cv(mmpp_times) > _cv(poisson_times)

    def test_poisson_cv_is_about_one(self):
        times = PoissonArrivals(200.0).sample_times(
            np.random.default_rng(7), 50.0
        )
        assert _cv(times) == pytest.approx(1.0, abs=0.05)


class TestDeterminismAndStructure:
    @settings(max_examples=200, deadline=None)
    @given(rate=RATES, seed=SEEDS)
    def test_property_same_seed_same_times(self, rate, seed):
        spec = PoissonArrivals(rate)
        one = spec.sample_times(np.random.default_rng(seed), 2.0)
        two = spec.sample_times(np.random.default_rng(seed), 2.0)
        assert one == two

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS)
    def test_property_times_sorted_and_in_window(self, seed):
        for process in (
            PoissonArrivals(150.0),
            MmppArrivals(rate_on=300.0, rate_off=30.0, mean_on=0.1, mean_off=0.2),
            DiurnalArrivals(base=40.0, peak=300.0, period=0.5),
        ):
            times = process.sample_times(np.random.default_rng(seed), 1.5)
            assert times == sorted(times)
            assert all(0.0 <= t < 1.5 for t in times)

    def test_scaled_multiplies_mean_rate(self):
        for process in (
            PoissonArrivals(100.0),
            MmppArrivals(rate_on=300.0, rate_off=30.0, mean_on=0.1, mean_off=0.2),
            DiurnalArrivals(base=40.0, peak=300.0, period=0.5),
        ):
            assert process.scaled(2.5).mean_rate() == pytest.approx(
                2.5 * process.mean_rate()
            )

    def test_protocol_conformance(self):
        for process in (
            PoissonArrivals(1.0),
            MmppArrivals(rate_on=2.0, rate_off=1.0, mean_on=1.0, mean_off=1.0),
            DiurnalArrivals(base=1.0, peak=2.0, period=1.0),
        ):
            assert isinstance(process, ArrivalProcess)


class TestSpecGrammar:
    @settings(max_examples=200, deadline=None)
    @given(rate=st.floats(min_value=0.001, max_value=1e6))
    def test_property_poisson_round_trip(self, rate):
        spec = PoissonArrivals(rate)
        assert parse_arrivals(spec.to_string()) == spec

    def test_all_kinds_round_trip(self):
        for text in (
            "poisson:rate=200",
            "mmpp:rate_on=500,rate_off=20,mean_on=0.1,mean_off=0.4",
            "diurnal:base=50,peak=400,period=1.0",
        ):
            process = parse_arrivals(text)
            assert parse_arrivals(process.to_string()) == process

    def test_whitespace_tolerated(self):
        assert parse_arrivals(" poisson : rate = 5 ".replace(" : ", ":")) == (
            PoissonArrivals(5.0)
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "poisson",
            "poisson:",
            "poisson:rate",
            "poisson:rate=abc",
            "poisson:rate=0",
            "poisson:rate=-5",
            "poisson:rate=1,rate=2",
            "poisson:rate=1,burst=2",
            "mmpp:rate_on=10,rate_off=20,mean_on=0.1,mean_off=0.1",
            "mmpp:rate_on=10",
            "uniform:rate=5",
            "diurnal:base=100,peak=50,period=1",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_arrivals(bad)

    def test_validation_at_construction(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(float("inf"))
        with pytest.raises(ValueError):
            MmppArrivals(rate_on=1.0, rate_off=2.0, mean_on=1.0, mean_off=1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(base=2.0, peak=1.0, period=1.0)
        with pytest.raises(ValueError):
            PoissonArrivals(5.0).sample_times(np.random.default_rng(0), 0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(5.0).scaled(0.0)
