"""Golden telemetry fixture: a TRIM flow's trace is byte-stable per seed.

The flight recorder's determinism contract is stronger than "same
hash": the exported JSONL for a seeded scenario must be *byte
identical* run over run — canonical key order, no whitespace,
shortest-repr floats — because sweep trace files are diffed and
cached by content.  This test drives the golden-trace TRIM scenario
(same constants as ``test_golden_traces.py``) with a ``cwnd,probe``
bus attached and pins the resulting JSONL to a committed fixture.  The
same scenario and its Reno twin, each run with and without a
full-capture bus, hold the recorder's zero-cost-when-disabled contract.

To re-record after an *intended* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_telemetry.py --regen-golden

and commit the updated fixture together with the change that caused it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional

import pytest

import repro.obs
from repro.experiments.scenarios import packets_per_second, path_base_rtt
from repro.net.topology import build_star
from repro.obs import CwndTimeline, Telemetry, TraceSpec, check_jsonl, write_jsonl
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpSink
from repro.tcp.factory import default_config, source_class

FIXTURE = Path(__file__).parent / "golden" / "telemetry_trim.jsonl"
OBS_DIR = str(Path(repro.obs.__file__).parent)

# Scenario constants — identical to test_golden_traces.py so the two
# fixtures certify the same simulated behavior from two vantage points
# (the wire there, the flight recorder here).
BANDWIDTH = 100e6
FRONTEND_BANDWIDTH = 50e6
DELAY = 100e-6
BUFFER_PKTS = 8
N_SERVERS = 3
TRAINS_PER_FLOW = 3
TRAIN_SEGMENTS = 60
TRAIN_GAP = 0.08
HORIZON = 0.45


def run_scenario(protocol: str, telemetry: Optional[Telemetry]) -> Simulator:
    """The golden scenario for ``protocol`` with ``telemetry`` attached
    (or none)."""
    sim = Simulator(check_invariants=False, telemetry=telemetry)
    star = build_star(
        sim,
        N_SERVERS,
        bandwidth_bps=BANDWIDTH,
        delay_s=DELAY,
        buffer_pkts=BUFFER_PKTS,
        frontend_bandwidth_bps=FRONTEND_BANDWIDTH,
    )
    config = default_config(protocol, min_rto=0.01, initial_rto=0.01)
    extras = {}
    if protocol == "trim":
        extras = dict(
            capacity_pps=packets_per_second(BANDWIDTH),
            base_rtt=path_base_rtt([(DELAY, BANDWIDTH)] * 2),
        )
    sources = []
    for i, server in enumerate(star.servers):
        sources.append(source_class(protocol)(
            sim, server, i, star.frontend.node_id, config=config, **extras
        ))
        TcpSink(sim, star.frontend, flow_id=i)
    for i, source in enumerate(sources):
        for k in range(TRAINS_PER_FLOW):
            sim.schedule_at(
                0.005 + i * 0.003 + k * TRAIN_GAP,
                lambda s=source: s.send_message(TRAIN_SEGMENTS),
            )
    sim.run(until=HORIZON)
    return sim


def test_golden_telemetry_jsonl_is_byte_identical(tmp_path, regen_golden):
    telemetry = Telemetry(TraceSpec.parse("cwnd,probe"))
    run_scenario("trim", telemetry)
    rows = telemetry.rows()

    # The fixture must keep certifying the probe machinery: a TRIM trace
    # with no inherit events would pin an empty promise.
    probe_events = [row["event"] for row in rows if row["ch"] == "probe"]
    assert "enter" in probe_events
    assert "inherit" in probe_events
    timeline = CwndTimeline.from_rows(rows)
    assert len(timeline) > 10

    if regen_golden:
        FIXTURE.parent.mkdir(exist_ok=True)
        write_jsonl(rows, FIXTURE)
        return
    if not FIXTURE.exists():
        pytest.fail(
            f"missing golden fixture {FIXTURE}; record it with "
            "'python -m pytest tests/test_golden_telemetry.py "
            "--regen-golden' and commit the result"
        )
    produced = write_jsonl(rows, tmp_path / "telemetry_trim.jsonl")
    assert produced.read_bytes() == FIXTURE.read_bytes(), (
        "the TRIM telemetry trace diverged from the recorded golden "
        "fixture. If this behavior (or schema) change is intended, "
        "re-record with --regen-golden; otherwise an emit point or the "
        "canonical JSONL encoding changed under you."
    )


def test_golden_telemetry_fixture_is_canonical():
    """The committed fixture itself passes the trace --check contract."""
    if not FIXTURE.exists():
        pytest.skip("fixture not recorded yet")
    assert check_jsonl(FIXTURE) > 0


def _obs_calls_during(
    protocol: str, telemetry: Optional[Telemetry]
) -> "tuple[int, int]":
    """``(events, Python-level calls into src/repro/obs/)`` of one run."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        sim = run_scenario(protocol, telemetry)
    finally:
        sys.setprofile(previous)
    return sim.events_executed, calls


def test_disabled_telemetry_is_free(monkeypatch):
    """The TRIM and Reno scenarios cross the emit points in tcp/base,
    core/trim, net/link and net/queues: with no bus attached none of
    them may reach ``repro.obs``, and attaching one must not change the
    run."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)  # would attach a bus
    seen = set()
    for protocol in ("trim", "reno"):
        off_events, off_calls = _obs_calls_during(protocol, None)
        bus = Telemetry(TraceSpec.parse("all"))
        on_events, on_calls = _obs_calls_during(protocol, bus)
        assert off_calls == 0, protocol
        assert on_calls > 0, protocol
        assert off_events == on_events, protocol
        seen |= {
            (row["ch"], row.get("kind") or row.get("event") or row.get("state"))
            for row in bus.rows()
        }
    # The probe is blind to an emit point that never fired, so every one
    # must have: tcp/base (cwnd, rtt, each state, rto), core/trim (each
    # probe event), net/link (queue samples) and net/queues (drops).
    assert seen >= {
        ("cwnd", None), ("rtt", None), ("rto", None),
        ("state", "open"), ("state", "recovery"), ("state", "timeout"),
        ("probe", "enter"), ("probe", "ack"), ("probe", "timeout"),
        ("probe", "inherit"), ("queue", "sample"), ("queue", "drop"),
    }
