"""Golden open-loop fixtures: schedule and replay telemetry are byte-stable.

Two fixtures pin the open-loop engine end to end:

* ``openloop_poisson.jsonl`` — the trace export of a seeded Poisson
  schedule compilation (arrival sampling, session chains, size draws,
  canonical JSONL encoding);
* ``openloop_replay.jsonl`` — the ``session``/``pool`` telemetry from
  *replaying* that exact trace through the simulator driver (pool
  lease order, idle expiry timing, completion latencies).

Because the second fixture is produced by loading the first, the pair
certifies the full loop the ISSUE names: compile → export → replay →
byte-identical behavior.  To re-record after an intended change::

    PYTHONPATH=src python -m pytest tests/test_golden_openloop.py --regen-golden

and commit both fixtures with the change that moved them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.http.openloop import (
    OpenLoopDriver,
    PoissonArrivals,
    SessionConfig,
    compile_schedule,
    load_trace,
    write_trace,
)
from repro.net.topology import build_star
from repro.obs import Telemetry, TraceSpec, check_jsonl, write_jsonl
from repro.sim.kernel import Simulator

POISSON_FIXTURE = Path(__file__).parent / "golden" / "openloop_poisson.jsonl"
REPLAY_FIXTURE = Path(__file__).parent / "golden" / "openloop_replay.jsonl"

# Scenario constants: small enough to run in milliseconds, busy enough
# to exercise chains, pool reuse, and at least one idle expiry.
RATE = 120.0
HORIZON = 0.4
SEED = 2016  # the paper's year, and nothing else
N_SERVERS = 2
IDLE_TIMEOUT = 0.05
MAX_REUSE = 8
DRAIN = 0.6


def compile_golden_schedule():
    return compile_schedule(
        PoissonArrivals(RATE),
        SessionConfig(mean_requests=2.5, think_time_s=0.02),
        seed=SEED,
        horizon=HORIZON,
    )


def run_replay(schedule) -> list[dict]:
    """Drive ``schedule`` with a session+pool bus; returns the rows."""
    telemetry = Telemetry(TraceSpec.parse("session,pool"))
    sim = Simulator(telemetry=telemetry)
    star = build_star(sim, N_SERVERS)
    driver = OpenLoopDriver(
        sim,
        star.frontend,
        star.servers,
        "reno",
        idle_timeout_s=IDLE_TIMEOUT,
        max_reuse=MAX_REUSE,
    )
    run = driver.play(schedule)
    sim.run(until=HORIZON + DRAIN)
    assert run.completed == run.offered, "golden scenario must drain"
    driver.check_conservation()
    return telemetry.rows()


def test_golden_poisson_trace_is_byte_identical(tmp_path, regen_golden):
    schedule = compile_golden_schedule()
    assert len(schedule) > 30  # the fixture must pin real work

    if regen_golden:
        POISSON_FIXTURE.parent.mkdir(exist_ok=True)
        write_trace(schedule, POISSON_FIXTURE)
        return
    if not POISSON_FIXTURE.exists():
        pytest.fail(
            f"missing golden fixture {POISSON_FIXTURE}; record it with "
            "'python -m pytest tests/test_golden_openloop.py "
            "--regen-golden' and commit the result"
        )
    produced = write_trace(schedule, tmp_path / "openloop_poisson.jsonl")
    assert produced.read_bytes() == POISSON_FIXTURE.read_bytes(), (
        "the compiled Poisson schedule diverged from the recorded golden "
        "trace. If the change is intended (arrival sampling, session "
        "model, or size distribution), re-record with --regen-golden; "
        "otherwise seeded compilation changed under you."
    )


def test_golden_replay_telemetry_is_byte_identical(tmp_path, regen_golden):
    if not regen_golden and not POISSON_FIXTURE.exists():
        pytest.skip("poisson fixture not recorded yet")
    if regen_golden:
        # Regen order within this file guarantees the trace exists.
        write_trace(compile_golden_schedule(), POISSON_FIXTURE)
    schedule = load_trace(POISSON_FIXTURE)
    rows = run_replay(schedule)

    events = {row["event"] for row in rows if row["ch"] == "pool"}
    assert "open" in events and "reuse" in events
    assert "close_idle" in events  # the fixture must pin idle expiry

    if regen_golden:
        write_jsonl(rows, REPLAY_FIXTURE)
        return
    if not REPLAY_FIXTURE.exists():
        pytest.fail(
            f"missing golden fixture {REPLAY_FIXTURE}; record it with "
            "'python -m pytest tests/test_golden_openloop.py "
            "--regen-golden' and commit the result"
        )
    produced = write_jsonl(rows, tmp_path / "openloop_replay.jsonl")
    assert produced.read_bytes() == REPLAY_FIXTURE.read_bytes(), (
        "replaying the golden trace produced different session/pool "
        "telemetry. If this behavior (or schema) change is intended, "
        "re-record with --regen-golden; otherwise the driver, pool, or "
        "simulator timing changed under you."
    )


def test_golden_fixtures_are_canonical(tmp_path):
    """Both committed fixtures are in canonical form: the trace reloads
    and re-exports to its own bytes, the telemetry passes its checker."""
    if not POISSON_FIXTURE.exists() or not REPLAY_FIXTURE.exists():
        pytest.skip("fixtures not recorded yet")
    schedule = load_trace(POISSON_FIXTURE)
    assert len(schedule) > 30
    again = write_trace(schedule, tmp_path / "openloop_poisson.jsonl")
    assert again.read_bytes() == POISSON_FIXTURE.read_bytes()
    assert check_jsonl(REPLAY_FIXTURE) > 0
