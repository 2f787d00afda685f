"""``repro.perf``: the layer probes' deterministic contracts and CLI.

Nothing here reads a clock.  What CI's two wall-clock gates stood for is
asserted as counts that repeat exactly on any host: the events each
probe executes, and the flight recorder's zero-cost-when-disabled
contract as "no Python call into ``repro/obs/``".
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

import repro.obs
from repro.perf import BENCHMARKS, BenchmarkSpec, run_benchmark
from repro.perf.__main__ import main
from repro.perf.benchmarks import BenchRun

SPECS = {spec.name: spec for spec in BENCHMARKS}
OBS_DIR = str(Path(repro.obs.__file__).parent)

#: executed events at quick scale; a change here is a change to the hot
#: path's work (PR 16's lazy ``_tx_done`` took link_saturation from
#: 64 000 to 47 988) and must be explained, not re-recorded silently.
QUICK_EVENTS = {
    "kernel_churn": 50_050,
    "link_saturation": 47_988,
    "trim_probe": 9_648,
    "telemetry_trace": 9_648,
}


@pytest.fixture(autouse=True)
def no_trace_env(monkeypatch):
    """``REPRO_TRACE`` would attach a bus to every ``Simulator``."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)


def _quick_run(spec: BenchmarkSpec) -> BenchRun:
    return spec.fn(spec.scale_for(True))


def _obs_calls_during(spec: BenchmarkSpec) -> "tuple[int, int]":
    """``(events, Python-level calls into src/repro/obs/)`` of one run."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        run = _quick_run(spec)
    finally:
        sys.setprofile(previous)
    return run.events, calls


class TestPinnedCounts:
    @pytest.mark.parametrize("name", list(QUICK_EVENTS))
    def test_quick_events_are_pinned(self, name):
        assert _quick_run(SPECS[name]).events == QUICK_EVENTS[name]


class TestDisabledTelemetryIsFree:
    def test_no_call_into_obs_and_same_events_as_the_traced_run(self):
        """trim_probe crosses the emit points in tcp/base, core/trim,
        net/link and net/queues; with no bus attached none of them may
        reach ``repro.obs``, and attaching one must not change the run."""
        off_events, off_calls = _obs_calls_during(SPECS["trim_probe"])
        on_events, on_calls = _obs_calls_during(SPECS["telemetry_trace"])
        assert on_calls > 0, "probe is blind: the traced run never entered obs"
        assert off_calls == 0
        assert off_events == on_events


class TestHarness:
    def test_nondeterministic_benchmark_is_refused(self):
        ticks = itertools.count()
        flaky = BenchmarkSpec(
            "flaky", "", lambda scale: BenchRun(1, 0.0, next(ticks)), 1, 1
        )
        with pytest.raises(RuntimeError, match="not deterministic"):
            run_benchmark(flaky, repeats=2)


class TestCli:
    RUN = ["--quick", "--repeats", "1", "--bench", "trim_probe"]

    def test_list_prints_exactly_the_registry(self, capsys):
        assert main(["--list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == list(QUICK_EVENTS)

    @pytest.mark.parametrize(
        "argv", [["--bench", "incast_quick"], ["--baseline", "x"]]
    )
    def test_removed_benchmark_and_flag_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_writes_nothing_unless_asked(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(self.RUN) == 0
        assert list(tmp_path.iterdir()) == []
        assert "trim_probe" in capsys.readouterr().out

    def test_output_is_a_v2_document_with_one_peak_rss(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(self.RUN + ["--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-bench/2"
        assert doc["peak_rss_kb"] > 0
        (row,) = doc["results"].values()
        assert row["events"] == QUICK_EVENTS["trim_probe"]
        assert "peak_rss_kb" not in row
