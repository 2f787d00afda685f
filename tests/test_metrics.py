"""Unit tests for completion statistics and the sampler over live traffic."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.ascii import cdf_table, sparkline
from repro.metrics.stats import (
    _sum,
    act,
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
    """A library caller may hand these functions numpy arrays.

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

    def test_empty_arrays_still_raise(self):
        empty = np.array([])
        for fn in (act, summarize, jain_fairness):
            with pytest.raises(ValueError):
                fn(empty)
        with pytest.raises(ValueError):
            percentile(empty, 50)


#: sample lengths across numpy's pairwise block edges (runs of 8,
#: blocks of 128) and well past one 8192-element buffer.
LENGTHS = st.one_of(
    st.integers(1, 20_000),
    st.sampled_from([1, 7, 8, 9, 127, 128, 129, 136, 255, 256, 257, 8192, 20_000]),
)


def _samples(seed, n):
    """Completion-time-like floats over twelve decades, so rounding bites."""
    rng = random.Random(seed)
    return [rng.expovariate(1.0) * 10.0 ** rng.randint(-9, 3) for _ in range(n)]


class TestReducersEqualNumpy:
    """The pure-Python reducers give numpy's float64 results to the bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), n=LENGTHS, q=st.floats(0.0, 100.0))
    def test_mean_sum_and_percentile(self, seed, n, q):
        times = _samples(seed, n)
        assert act(times) == float(np.mean(times))
        assert _sum(times) == float(np.sum(times))
        for quantile in (q, 0, 1, 10, 25, 50, 75, 90, 99, 99.9, 100):
            assert percentile(times, quantile) == float(np.percentile(times, quantile))
        summary = summarize(times)
        assert summary.p50 == float(np.percentile(times, 50))
        assert summary.p99 == float(np.percentile(times, 99))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 300))
    def test_jain_and_ascii_views(self, seed, n):
        shares = _samples(seed, n)
        arr = np.asarray(shares)
        assert jain_fairness(shares) == float(np.sum(arr)) ** 2 / (
            n * float(np.sum(arr**2))
        )
        assert cdf_table(shares) == [
            f"p{q * 100:5.1f}  {float(np.quantile(arr, q)) * 1e3:10.3f} ms"
            for q in (0.5, 0.9, 0.95, 0.99, 1.0)
        ]
        # the sparkline's columns are numpy means of linspace buckets
        edges = np.linspace(0, n, 41).astype(int)
        columns = [
            arr[a:b].mean() if b > a else arr[min(a, n - 1)]
            for a, b in zip(edges, edges[1:])
        ]
        lo, hi = min(columns), max(columns)
        expected = "".join(
            " ▁▂▃▄▅▆▇█"[1 if hi == lo else 1 + int((c - lo) / (hi - lo) * 7)]
            for c in columns
        )
        assert sparkline(shares, width=40) == expected


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
