"""Unit tests for time series and samplers."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.monitor import PeriodicSampler, TimeSeries, delta_rate


class TestTimeSeries:
    def test_record_and_len(self):
        ts = TimeSeries("q")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2

    def test_iteration_yields_pairs(self):
        ts = TimeSeries()
        ts.record(0.0, 5.0)
        assert list(ts) == [(0.0, 5.0)]

    def test_last(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(2.0, 3.0)
        assert ts.last() == (2.0, 3.0)

    def test_last_empty_raises(self):
        with pytest.raises(IndexError):
            TimeSeries().last()

    def test_min_max(self):
        ts = TimeSeries()
        for t, v in enumerate((5.0, 1.0, 3.0)):
            ts.record(float(t), v)
        assert ts.max() == 5.0
        assert ts.min() == 1.0

    def test_mean(self):
        ts = TimeSeries()
        for t, v in enumerate((1.0, 2.0, 3.0)):
            ts.record(float(t), v)
        assert ts.mean() == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().mean()

    def test_time_average_step_function(self):
        ts = TimeSeries()
        ts.record(0.0, 10.0)  # held for 1s
        ts.record(1.0, 0.0)  # held for 3s
        ts.record(4.0, 99.0)  # terminal sample: no weight
        assert ts.time_average() == pytest.approx(10.0 / 4.0)

    def test_time_average_needs_two_samples(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        with pytest.raises(ValueError):
            ts.time_average()

    def test_time_average_zero_span_raises(self):
        ts = TimeSeries()
        ts.record(1.0, 1.0)
        ts.record(1.0, 2.0)
        with pytest.raises(ValueError):
            ts.time_average()

    def test_window_half_open(self):
        ts = TimeSeries("w")
        for t in range(5):
            ts.record(float(t), float(t))
        cut = ts.window(1.0, 3.0)
        assert cut.times == [1.0, 2.0]
        assert cut.name == "w"


class TestPeriodicSampler:
    def test_samples_at_period(self):
        sim = Simulator()
        values = iter(range(100))
        sampler = PeriodicSampler(sim, 0.1, lambda: next(values)).start()
        sim.run(until=0.35)
        assert sampler.series.times == pytest.approx([0.0, 0.1, 0.2, 0.3])
        assert sampler.series.values == [0, 1, 2, 3]

    def test_start_at_offset(self):
        sim = Simulator()
        sampler = PeriodicSampler(sim, 0.1, lambda: 1.0).start(at=0.5)
        sim.run(until=0.65)
        assert sampler.series.times == pytest.approx([0.5, 0.6])

    def test_stop_halts_sampling(self):
        sim = Simulator()
        sampler = PeriodicSampler(sim, 0.1, lambda: 1.0).start()
        sim.schedule(0.25, sampler.stop)
        sim.run(until=1.0)
        assert len(sampler.series) == 3  # 0.0, 0.1, 0.2

    def test_non_positive_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSampler(Simulator(), 0.0, lambda: 1.0)


class TestDeltaRate:
    def test_first_bin_measured_from_value_at_construction(self):
        counter = [1000]
        probe = delta_rate(lambda: counter[0], period=0.5, scale=8.0)
        counter[0] = 1250
        assert probe() == pytest.approx(250 * 8.0 / 0.5)  # not 1250 * ...
        counter[0] = 1300
        assert probe() == pytest.approx(50 * 8.0 / 0.5)

    def test_constant_counter_reads_zero(self):
        probe = delta_rate(lambda: 42, period=1e-3)
        assert [probe(), probe()] == [0.0, 0.0]
