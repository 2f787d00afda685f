"""Unit tests for completion statistics and the sampler over live traffic."""

import numpy as np
import pytest

from repro.metrics.stats import (
    act,
    cdf_points,
    completion_times,
    jain_fairness,
    percentile,
    summarize,
)
from repro.sim.monitor import PeriodicSampler, delta_rate
from repro.tcp.base import Message
from tests.helpers import make_pair


def msg(submit, finish):
    m = Message(message_id=0, start_seq=0, end_seq=1, submit_time=submit)
    m.finish_time = finish
    return m


class TestStats:
    def test_completion_times_filters_unfinished(self):
        done = msg(0.0, 1.5)
        pending = Message(message_id=1, start_seq=1, end_seq=2, submit_time=0.0)
        assert completion_times([done, pending]) == [1.5]

    def test_completion_time_property_raises_when_pending(self):
        pending = Message(message_id=1, start_seq=1, end_seq=2, submit_time=0.0)
        with pytest.raises(ValueError):
            pending.completion_time

    def test_act(self):
        assert act([1.0, 2.0, 3.0]) == 2.0

    def test_act_empty_raises(self):
        with pytest.raises(ValueError):
            act([])

    def test_percentile(self):
        times = list(range(1, 101))
        assert percentile(times, 50) == pytest.approx(50.5)
        with pytest.raises(ValueError):
            percentile(times, 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_cdf_points(self):
        values, probs = cdf_points([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert list(probs) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_points_empty_raises(self):
        with pytest.raises(ValueError):
            cdf_points([])

    def test_jain_perfect_fairness(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_jain_single_hog(self):
        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_jain_validation(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([-1.0])

    def test_jain_all_zero(self):
        assert jain_fairness([0.0, 0.0]) == 1.0


class TestStatsAcceptNumpyArrays:
    """Experiment reducers hand these functions numpy arrays directly.

    Regression guard: the emptiness checks must use ``len()``, because
    ``not arr`` raises "truth value of an array is ambiguous" for any
    numpy array longer than one element.
    """

    TIMES = np.array([1.0, 2.0, 3.0, 4.0])

    def test_act_on_array(self):
        assert act(self.TIMES) == pytest.approx(2.5)

    def test_percentile_on_array(self):
        assert percentile(self.TIMES, 50) == pytest.approx(2.5)

    def test_summarize_on_array(self):
        s = summarize(self.TIMES)
        assert (s.count, s.minimum, s.maximum) == (4, 1.0, 4.0)

    def test_jain_on_array(self):
        assert jain_fairness(np.array([5.0, 5.0])) == pytest.approx(1.0)

    def test_cdf_points_on_array(self):
        values, _probs = cdf_points(np.array([3.0, 1.0]))
        assert list(values) == [1.0, 3.0]

    def test_empty_arrays_still_raise(self):
        empty = np.array([])
        for fn in (act, summarize, cdf_points, jain_fairness):
            with pytest.raises(ValueError):
                fn(empty)
        with pytest.raises(ValueError):
            percentile(empty, 50)


class TestMonitors:
    """PeriodicSampler (+ delta_rate) pointed at a live star, with the
    probes the figure experiments use."""

    def test_queue_monitor_records_backlog(self):
        sim, star, source, _sink = make_pair(frontend_bandwidth=100e6)
        link = star.bottleneck
        monitor = PeriodicSampler(sim, 1e-3, lambda: link.backlog_pkts).start(0.0)
        source.send_message(500)
        sim.run(until=0.05)
        assert monitor.series.max() > 0
        assert monitor.series.mean() >= 0

    def test_throughput_monitor_measures_line_rate(self):
        sim, star, source, _sink = make_pair()
        link = star.bottleneck
        probe = delta_rate(lambda: link.stats.tx_bytes, 1e-3, scale=8.0)
        monitor = PeriodicSampler(sim, 1e-3, probe).start(0.0)
        source.send_message(3000)
        sim.run(until=0.04)
        # Mid-transfer bins should be near 1 Gbps.
        peak = monitor.series.max()
        assert peak == pytest.approx(1e9, rel=0.05)

    def test_sink_throughput_monitor(self):
        sim, _star, source, sink = make_pair()
        probe = delta_rate(lambda: sink.delivered_bytes, 1e-3, scale=8.0)
        monitor = PeriodicSampler(sim, 1e-3, probe).start(0.0)
        source.send_message(3000)
        sim.run(until=0.04)
        assert monitor.series.max() == pytest.approx(1e9, rel=0.1)
        assert monitor.series.window(0.0, 0.04).mean() > 0

    def test_cwnd_tracer(self):
        sim, _star, source, _sink = make_pair()
        tracer = PeriodicSampler(sim, 1e-3, lambda: source.cwnd).start(0.0)
        source.send_message(100)
        sim.run(until=0.02)
        assert tracer.series.values[0] == pytest.approx(2.0)
        assert tracer.series.max() > 50
