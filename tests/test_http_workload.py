"""Unit and property tests for the synthetic workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.http.workload import (
    GAP_CDF_ANCHORS,
    PT_SIZE_CDF_ANCHORS,
    PiecewiseLogCdf,
    generate_onoff_schedule,
    gap_sampler,
    pt_size_sampler,
    response_schedule,
    segments_for_bytes,
)


class TestPiecewiseLogCdf:
    def test_quantile_hits_anchors_exactly(self):
        cdf = PiecewiseLogCdf(PT_SIZE_CDF_ANCHORS)
        for value, prob in PT_SIZE_CDF_ANCHORS:
            assert cdf.quantile([prob])[0] == pytest.approx(value, rel=1e-9)

    def test_cdf_inverts_quantile(self):
        cdf = PiecewiseLogCdf(PT_SIZE_CDF_ANCHORS)
        probs = np.linspace(0.0, 1.0, 21)
        roundtrip = cdf.cdf(cdf.quantile(probs))
        assert np.allclose(roundtrip, probs, atol=1e-9)

    def test_samples_within_support(self):
        rng = np.random.default_rng(1)
        cdf = pt_size_sampler()
        samples = cdf.sample(rng, 5000)
        assert samples.min() >= PT_SIZE_CDF_ANCHORS[0][0] - 1e-9
        assert samples.max() <= PT_SIZE_CDF_ANCHORS[-1][0] + 1e-9

    def test_published_fractions_reproduced(self):
        """Fig. 2(a): ≤20% of trains at or under 4 KB, ~90% under 128 KB."""
        rng = np.random.default_rng(2)
        samples = pt_size_sampler().sample(rng, 20000)
        frac_4k = float(np.mean(samples <= 4096))
        frac_128k = float(np.mean(samples <= 131072))
        assert frac_4k == pytest.approx(0.20, abs=0.02)
        assert frac_128k == pytest.approx(0.90, abs=0.02)

    def test_gap_range_matches_fig2b(self):
        rng = np.random.default_rng(3)
        gaps = gap_sampler().sample(rng, 10000)
        assert gaps.min() >= GAP_CDF_ANCHORS[0][0] - 1e-12
        assert gaps.max() <= GAP_CDF_ANCHORS[-1][0] + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLogCdf([(1.0, 0.0)])  # too few anchors
        with pytest.raises(ValueError):
            PiecewiseLogCdf([(0.0, 0.0), (1.0, 1.0)])  # non-positive value
        with pytest.raises(ValueError):
            PiecewiseLogCdf([(2.0, 0.0), (1.0, 1.0)])  # decreasing values
        with pytest.raises(ValueError):
            PiecewiseLogCdf([(1.0, 0.1), (2.0, 1.0)])  # does not start at 0
        with pytest.raises(ValueError):
            PiecewiseLogCdf([(1.0, 0.0), (2.0, 0.9)])  # does not end at 1
        with pytest.raises(ValueError):
            PiecewiseLogCdf([(1.0, 0.0), (2.0, 0.5), (3.0, 0.4), (4.0, 1.0)])

    def test_quantile_rejects_out_of_range(self):
        cdf = pt_size_sampler()
        with pytest.raises(ValueError):
            cdf.quantile([1.5])

    def test_cdf_rejects_non_positive(self):
        with pytest.raises(ValueError):
            pt_size_sampler().cdf([0.0])

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_property_quantile_monotone(self, u):
        cdf = pt_size_sampler()
        lo = cdf.quantile([max(0.0, u - 0.01)])[0]
        hi = cdf.quantile([min(1.0, u + 0.01)])[0]
        assert lo <= hi


class TestSizeDistributionProperties:
    """Hypothesis properties pinning the workload-realism contract:
    the paper-style size distributions are proper CDFs (monotone, with
    the published support) and sampling is a pure function of seed."""

    @settings(max_examples=200)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=2,
            max_size=50,
        )
    )
    def test_property_cdf_monotone(self, probs):
        """F(x) is non-decreasing along any increasing value path."""
        for sampler in (pt_size_sampler(), gap_sampler()):
            values = sorted(float(v) for v in sampler.quantile(sorted(probs)))
            cdf_values = sampler.cdf(values)
            assert all(a <= b + 1e-12 for a, b in zip(cdf_values, cdf_values[1:]))

    @settings(max_examples=200)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=512),
    )
    def test_property_samples_within_support(self, seed, n):
        """Every sample lands inside the anchored support, any seed."""
        for sampler, anchors in (
            (pt_size_sampler(), PT_SIZE_CDF_ANCHORS),
            (gap_sampler(), GAP_CDF_ANCHORS),
        ):
            samples = sampler.sample(np.random.default_rng(seed), n)
            assert samples.min() >= anchors[0][0] - 1e-9
            assert samples.max() <= anchors[-1][0] + 1e-9

    @settings(max_examples=200)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=512),
    )
    def test_property_seed_determinism(self, seed, n):
        """Same seed, same draw count ⇒ bit-identical sample arrays."""
        one = pt_size_sampler().sample(np.random.default_rng(seed), n)
        two = pt_size_sampler().sample(np.random.default_rng(seed), n)
        assert np.array_equal(one, two)


class TestOnOffSchedule:
    def test_events_ordered_and_within_duration(self):
        rng = np.random.default_rng(4)
        events = generate_onoff_schedule(rng, duration=0.5, start_time=1.0)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(1.0 <= t < 1.5 for t in times)

    def test_sizes_positive(self):
        rng = np.random.default_rng(5)
        events = generate_onoff_schedule(rng, duration=0.5)
        assert all(e.size_bytes >= 1 for e in events)

    def test_drain_rate_separates_trains(self):
        """With drain accounting, consecutive events never overlap the
        previous train's transmission at the given line rate."""
        rng = np.random.default_rng(6)
        rate = 1e9
        events = generate_onoff_schedule(rng, duration=2.0, drain_rate_bps=rate)
        for a, b in zip(events, events[1:]):
            assert b.time >= a.time + a.size_bytes * 8.0 / rate

    def test_no_drain_rate_allows_tighter_packing(self):
        rng = np.random.default_rng(7)
        dense = generate_onoff_schedule(rng, duration=2.0, drain_rate_bps=None)
        rng = np.random.default_rng(7)
        sparse = generate_onoff_schedule(rng, duration=2.0, drain_rate_bps=1e6)
        assert len(dense) >= len(sparse)

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            generate_onoff_schedule(np.random.default_rng(0), duration=0.0)

    def test_reproducible_from_seed(self):
        one = generate_onoff_schedule(np.random.default_rng(9), duration=1.0)
        two = generate_onoff_schedule(np.random.default_rng(9), duration=1.0)
        assert one == two


class TestResponseSchedule:
    def test_count_and_sizes(self):
        rng = np.random.default_rng(1)
        events = response_schedule(rng, 50, 0.1, 1e-3, (2000, 10000))
        assert len(events) == 50
        assert all(2000 <= e.size_bytes <= 10000 for e in events)
        assert events[0].time == 0.1

    def test_mean_interval_roughly_respected(self):
        rng = np.random.default_rng(2)
        events = response_schedule(rng, 2000, 0.0, 1e-3, (100, 200))
        span = events[-1].time - events[0].time
        assert span == pytest.approx(2.0, rel=0.15)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            response_schedule(rng, 0, 0.0, 1e-3, (1, 2))
        with pytest.raises(ValueError):
            response_schedule(rng, 1, 0.0, 0.0, (1, 2))
        with pytest.raises(ValueError):
            response_schedule(rng, 1, 0.0, 1e-3, (0, 2))


class TestSegmentsForBytes:
    def test_exact_multiple(self):
        assert segments_for_bytes(2920) == 2

    def test_rounds_up(self):
        assert segments_for_bytes(2921) == 3

    def test_minimum_one(self):
        assert segments_for_bytes(1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            segments_for_bytes(0)
