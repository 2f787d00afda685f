"""Tests for the terminal chart helpers."""

import pytest

from repro.metrics.ascii import cdf_table, sparkline, strip_chart
from repro.sim.monitor import TimeSeries


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_width(self):
        assert len(sparkline(range(100), width=40)) == 40

    def test_constant_series_visible(self):
        line = sparkline([5.0] * 10, width=10)
        assert set(line) == {"▁"}

    def test_monotone_ramp_is_nondecreasing(self):
        line = sparkline(range(60), width=12)
        levels = [ord(c) for c in line]
        assert levels == sorted(levels)

    def test_short_input_padded_across_width(self):
        assert len(sparkline([1.0, 2.0], width=10)) == 10

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)


class TestStripChart:
    def _series(self, values, t0=0.0, dt=0.1):
        s = TimeSeries()
        for i, v in enumerate(values):
            s.record(t0 + i * dt, v)
        return s

    def test_rows_and_format(self):
        s = self._series([10.0] * 50)
        rows = strip_chart([s], peak=20.0, rows=5, width=20)
        assert len(rows) == 5
        assert all(row.endswith("|") for row in rows)

    def test_flow_position_scales_with_value(self):
        low = self._series([1.0] * 50)
        high = self._series([19.0] * 50)
        rows = strip_chart([low, high], peak=20.0, rows=2, width=40)
        body = rows[0].split("|")[1]
        assert body.index("1") < body.index("2")

    def test_empty_series(self):
        assert strip_chart([TimeSeries()], peak=1.0) == []

    def test_validation(self):
        s = self._series([1.0, 2.0])
        with pytest.raises(ValueError):
            strip_chart([s], peak=0.0)
        with pytest.raises(ValueError):
            strip_chart([s], peak=1.0, rows=0)


class TestCdfTable:
    def test_quantile_rows(self):
        rows = cdf_table([0.001, 0.002, 0.003, 0.100])
        assert len(rows) == 5
        assert rows[-1].startswith("p100.0")
        assert "ms" in rows[0]

    def test_maximum_is_last_quantile(self):
        rows = cdf_table([0.5, 1.0])
        assert rows[-1] == "p100.0    1000.000 ms"

    def test_validation(self):
        with pytest.raises(ValueError):
            cdf_table([])
