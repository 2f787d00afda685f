"""Golden-trace regression tests for the simulation hot path.

Each TCP variant runs one canonical short scenario — three servers
sharing a tight bottleneck, sending trains separated by OFF gaps long
enough to trigger the gap detector — and the complete packet trace
(every delivery on the bottleneck and on the front-end's ACK path),
the executed-event count, and the final per-flow sender state are
hashed into a fixture under ``tests/golden/``.

The kernel docstring promises byte-identical determinism per seed, and
the performance work in ``sim/``, ``net/``, and ``tcp/`` leans on that
promise: any hot-path change that alters behavior — event ordering,
retransmission timing, window arithmetic — changes the hash and fails
these tests loudly.

To re-record after an *intended* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --regen-golden

and commit the updated fixtures together with the change that caused
them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.scenarios import (
    ecn_threshold_for,
    packets_per_second,
    path_base_rtt,
)
from repro.metrics.tracing import PacketLogger
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.factory import create_source, default_config
from repro.tcp.base import TcpSink

GOLDEN_DIR = Path(__file__).parent / "golden"

#: variants covered by a golden fixture: the base protocol, an ECN
#: protocol (different marking path), both gap-detecting variants
#: (TRIM probes, GIP restart), and the competitor-matrix pair (Tiny
#: Buffer's paced BDP clamp, T-RACKs' time-based loss detection).
PROTOCOLS = ("reno", "dctcp", "trim", "gip", "tinybuffer", "tracks")

# Scenario constants — changing any of these invalidates every fixture.
# The front-end link is half the access rate so three overlapping
# senders overload it: even the delay-limited variants lose their
# slow-start overshoot into the 8-packet buffer.
BANDWIDTH = 100e6
FRONTEND_BANDWIDTH = 50e6
DELAY = 100e-6
BUFFER_PKTS = 8
N_SERVERS = 3
TRAINS_PER_FLOW = 3
TRAIN_SEGMENTS = 60
TRAIN_GAP = 0.08  # well above smooth_RTT: triggers probe/restart cycles
HORIZON = 0.45


def run_golden_scenario(protocol: str, check_invariants: bool = False):
    """The canonical scenario; returns its metadata (digest included)."""
    sim = Simulator(check_invariants=check_invariants)
    star = build_star(
        sim,
        N_SERVERS,
        bandwidth_bps=BANDWIDTH,
        delay_s=DELAY,
        buffer_pkts=BUFFER_PKTS,
        frontend_bandwidth_bps=FRONTEND_BANDWIDTH,
        ecn_threshold_pkts=ecn_threshold_for(protocol, FRONTEND_BANDWIDTH),
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
        source = create_source(
            protocol,
            sim,
            server,
            star.frontend.node_id,
            flow_id=i,
            config=config,
            **extras,
        )
        TcpSink(sim, star.frontend, flow_id=i)
        sources.append(source)

    data_log = PacketLogger(star.bottleneck)
    ack_log = PacketLogger(star.frontend.nic)

    for i, source in enumerate(sources):
        for k in range(TRAINS_PER_FLOW):
            sim.schedule_at(
                0.005 + i * 0.003 + k * TRAIN_GAP,
                lambda s=source: s.send_message(TRAIN_SEGMENTS),
            )
    sim.run(until=HORIZON)

    h = hashlib.sha256()
    for logger in (data_log, ack_log):
        for r in logger.records:
            h.update(
                f"{r.time!r}|{r.flow_id}|{r.seq}|{r.size_bytes}|"
                f"{int(r.is_retransmission)}\n".encode()
            )
    for s in sources:
        h.update(
            f"flow{s.flow_id}:{s.stats.segments_sent}:{s.stats.retransmits}:"
            f"{s.stats.timeouts}:{s.stats.fast_retransmits}:"
            f"{s.highest_ack}:{s.cwnd!r}:{s.ssthresh!r}\n".encode()
        )

    meta = {
        "protocol": protocol,
        "trace_sha256": h.hexdigest(),
        "n_records": len(data_log) + len(ack_log),
        "events_executed": sim.events_executed,
        "segments_sent": sum(s.stats.segments_sent for s in sources),
        "retransmits": sum(s.stats.retransmits for s in sources),
        "timeouts": sum(s.stats.timeouts for s in sources),
        "dropped_packets": star.network.total_dropped(),
    }
    if protocol == "trim":
        meta["probe_cycles"] = sum(
            s.probes_completed + s.probes_timed_out for s in sources
        )
        meta["delay_decreases"] = sum(s.delay_decreases for s in sources)
    if protocol == "tracks":
        meta["time_detected_losses"] = sum(
            s.time_detected_losses for s in sources
        )
    return meta


def _fixture_path(protocol: str) -> Path:
    return GOLDEN_DIR / f"{protocol}.json"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_golden_trace(protocol, regen_golden):
    meta = run_golden_scenario(protocol)

    # The scenario must keep exercising the machinery it certifies: a
    # fixture that stops covering loss recovery (or TRIM's probes) would
    # silently stop guarding those paths.  TRIM itself avoids every drop
    # in this scenario — that is the paper's claim working as intended —
    # so its fixture certifies the probe and delay-decrease machinery
    # instead, while the other variants pin down loss recovery.
    if protocol == "trim":
        assert meta["probe_cycles"] > 0, "golden scenario stopped probing"
        assert meta["delay_decreases"] > 0, "golden scenario lost Eq.(3) coverage"
    else:
        assert meta["retransmits"] > 0, "golden scenario lost its loss coverage"
        assert meta["dropped_packets"] > 0
    if protocol == "tracks":
        # T-RACKs' whole point is recovering without dup-ACK counting;
        # a fixture where no loss is found by transmit-time comparison
        # would certify nothing about the RACK machinery.
        assert meta["time_detected_losses"] > 0, (
            "golden scenario stopped exercising time-based detection"
        )

    path = _fixture_path(protocol)
    if regen_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; record it with "
            "'python -m pytest tests/test_golden_traces.py --regen-golden' "
            "and commit the result"
        )
    expected = json.loads(path.read_text())
    assert meta["trace_sha256"] == expected["trace_sha256"], (
        f"{protocol}: the packet trace diverged from the recorded golden "
        f"fixture (got {meta} vs recorded {expected}). If this behavior "
        "change is intended, re-record with --regen-golden; otherwise a "
        "hot-path 'optimization' altered simulation behavior."
    )
    assert meta == expected


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_golden_scenario_is_deterministic(protocol):
    """The scenario itself must be a pure function of its constants."""
    assert run_golden_scenario(protocol) == run_golden_scenario(protocol)


def test_checked_loop_runs_the_same_bytes_as_the_fast_loop():
    """``_run_fast`` and ``_run_checked`` are two bodies of one loop:
    same records, same counters, same number of events."""
    assert run_golden_scenario("reno", check_invariants=True) == (
        run_golden_scenario("reno")
    )
