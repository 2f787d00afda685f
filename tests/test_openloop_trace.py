"""Trace-replay format: byte-exact round trips and strict validation."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.http.openloop import (
    MmppArrivals,
    PoissonArrivals,
    SessionConfig,
    compile_schedule,
    load_trace,
    write_trace,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestRoundTrip:
    @settings(
        max_examples=50,
        deadline=None,
        # Each example writes to seed-unique filenames, so reusing the
        # function-scoped tmp_path across examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=SEEDS)
    def test_property_export_reload_reproduces_schedule(self, seed, tmp_path):
        """Replay of an exported trace is byte-for-byte the original:
        same requests, and re-exporting writes identical bytes."""
        schedule = compile_schedule(
            MmppArrivals(rate_on=300.0, rate_off=20.0, mean_on=0.05, mean_off=0.2),
            SessionConfig(mean_requests=2.0, think_time_s=0.01),
            seed=seed,
            horizon=0.5,
        )
        first = write_trace(schedule, tmp_path / f"trace-{seed}.jsonl")
        reloaded = load_trace(first)
        assert reloaded.requests == schedule.requests
        second = write_trace(reloaded, tmp_path / f"again-{seed}.jsonl")
        assert second.read_bytes() == first.read_bytes()

    def test_trace_rows_are_flat_tuples(self, tmp_path):
        schedule = compile_schedule(
            PoissonArrivals(60.0), SessionConfig(), seed=2, horizon=0.2
        )
        path = write_trace(schedule, tmp_path / "trace.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == len(schedule)
        for row, request in zip(rows, schedule):
            assert row == {
                "t": request.time,
                "session": request.session,
                "size": request.size_bytes,
            }

    def test_inferred_horizon_covers_last_request(self, tmp_path):
        schedule = compile_schedule(
            PoissonArrivals(60.0), SessionConfig(), seed=3, horizon=0.5
        )
        path = write_trace(schedule, tmp_path / "trace.jsonl")
        reloaded = load_trace(path)
        assert reloaded.horizon >= reloaded.requests[-1].time


class TestStrictValidation:
    def _write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_rejects_extra_keys(self, tmp_path):
        path = self._write_lines(
            tmp_path, ['{"session":0,"size":10,"t":0.1,"extra":1}']
        )
        with pytest.raises(ValueError, match="keys"):
            load_trace(path)

    def test_rejects_missing_keys(self, tmp_path):
        path = self._write_lines(tmp_path, ['{"session":0,"t":0.1}'])
        with pytest.raises(ValueError, match="keys"):
            load_trace(path)

    def test_rejects_telemetry_rows(self, tmp_path):
        """A --trace telemetry JSONL handed to --replay fails loudly."""
        path = self._write_lines(
            tmp_path,
            ['{"ch":"cwnd","cwnd":2.0,"flow":0,"ssthresh":64.0,"t":0.1}'],
        )
        with pytest.raises(ValueError):
            load_trace(path)

    def test_rejects_bad_json(self, tmp_path):
        path = self._write_lines(tmp_path, ["not json"])
        with pytest.raises(ValueError, match="bad JSONL"):
            load_trace(path)

    @pytest.mark.parametrize(
        "row",
        [
            {"session": 0, "size": 0, "t": 0.1},
            {"session": 0, "size": -5, "t": 0.1},
            {"session": 0, "size": 10, "t": -0.1},
            {"session": 0.5, "size": 10, "t": 0.1},
            {"session": True, "size": 10, "t": 0.1},
            {"session": 0, "size": True, "t": 0.1},
            {"session": 0, "size": "10", "t": 0.1},
            {"session": 0, "size": 10, "t": "0.1"},
        ],
    )
    def test_rejects_bad_values(self, tmp_path, row):
        path = self._write_lines(tmp_path, [json.dumps(row)])
        with pytest.raises(ValueError):
            load_trace(path)

    def test_non_canonical_form_loads(self, tmp_path):
        # Valid row, but keys unsorted / whitespace present.
        path = self._write_lines(tmp_path, ['{"t": 0.1, "session": 0, "size": 10}'])
        assert [(r.time, r.session, r.size_bytes) for r in load_trace(path)] == [
            (0.1, 0, 10)
        ]

    def test_decreasing_times_are_replayed_in_time_order(self, tmp_path):
        path = self._write_lines(
            tmp_path,
            [
                '{"session":0,"size":10,"t":0.5}',
                '{"session":1,"size":10,"t":0.2}',
            ],
        )
        assert [r.session for r in load_trace(path)] == [1, 0]

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write_lines(
            tmp_path, ['{"session":0,"size":10,"t":0.1}', ""]
        )
        assert len(load_trace(path)) == 1
