"""Chaos-mode golden traces: fault injection is part of the determinism
contract.

Same canonical star scenario as ``test_golden_traces.py``, but with a
fixed :class:`~repro.faults.FaultPlan` armed against the bottleneck —
a heavy loss burst, a jitter window, a buffer shrink/restore, a short
outage, and a corruption window.  The full packet trace, executed-event
count, per-flow sender state, and the injector's per-fault counters are
hashed into fixtures under ``tests/golden/faults_*.json``.

Same seed + same plan ⇒ byte-identical fault schedule and trace; any
change to the injector's draw order, the link's delivery interception,
or the queue-resize eviction rule fails these tests loudly.

To re-record after an *intended* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_faults.py --regen-golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.scenarios import (
    ecn_threshold_for,
    packets_per_second,
    path_base_rtt,
)
from repro.faults import (
    BufferResize,
    Corrupt,
    DelayJitter,
    FaultInjector,
    FaultPlan,
    LinkDown,
    LinkUp,
    LossBurst,
)
from repro.metrics.tracing import PacketLogger
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpSink
from repro.tcp.factory import default_config, source_class

GOLDEN_DIR = Path(__file__).parent / "golden"

#: the loss-based baseline and the paper's protocol, whose probe/delay
#: machinery must stay deterministic under injected chaos too.
PROTOCOLS = ("reno", "trim")

# Scenario constants — identical to test_golden_traces.py so the two
# suites certify the same hot path with and without faults armed.
BANDWIDTH = 100e6
FRONTEND_BANDWIDTH = 50e6
DELAY = 100e-6
BUFFER_PKTS = 8
N_SERVERS = 3
TRAINS_PER_FLOW = 3
TRAIN_SEGMENTS = 60
TRAIN_GAP = 0.08
HORIZON = 0.45
FAULT_SEED = 7

BOTTLENECK = "sw->frontend"

#: the fixed chaos schedule: every impairment type the subsystem models
#: (surges excluded — they need an experiment-owned flow factory).  The
#: times sit inside the trains' busy windows (trains start at ~0.005,
#: ~0.085, ~0.165 and drain in tens of milliseconds) so every fault
#: actually bites — the per-fixture assertions below enforce that.
PLAN = FaultPlan.of([
    LossBurst(time=0.02, link=BOTTLENECK, rate=0.3, duration=0.03),
    Corrupt(time=0.09, link=BOTTLENECK, rate=0.15, duration=0.03),
    DelayJitter(time=0.10, link=BOTTLENECK, mean_s=3e-4, duration=0.03),
    LinkDown(time=0.168, link=BOTTLENECK),
    LinkUp(time=0.178, link=BOTTLENECK),
    BufferResize(time=0.180, link=BOTTLENECK, pkts=2),
    BufferResize(time=0.22, link=BOTTLENECK, pkts=BUFFER_PKTS),
])


def run_golden_fault_scenario(protocol: str, plan: FaultPlan = PLAN):
    """The canonical scenario under ``plan``; returns the fixture metadata."""
    sim = Simulator(check_invariants=False)
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
        source = source_class(protocol)(
            sim, server, i, star.frontend.node_id, config=config, **extras
        )
        TcpSink(sim, star.frontend, flow_id=i)
        sources.append(source)

    injector = FaultInjector(sim, star.network, plan, seed=FAULT_SEED)
    injector.arm()

    data_log = PacketLogger(star.bottleneck)
    ack_log = PacketLogger(star.frontend.nic)

    for i, source in enumerate(sources):
        for k in range(TRAINS_PER_FLOW):
            sim.schedule_at(
                0.005 + i * 0.003 + k * TRAIN_GAP,
                lambda s=source: s.send_message(TRAIN_SEGMENTS),
            )
    sim.run(until=HORIZON)

    stats = injector.total_stats()
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
    for field in dataclasses.fields(stats):
        h.update(f"fault.{field.name}={getattr(stats, field.name)}\n".encode())

    meta = {
        "protocol": protocol,
        "trace_sha256": h.hexdigest(),
        "n_records": len(data_log) + len(ack_log),
        "events_executed": sim.events_executed,
        "segments_sent": sum(s.stats.segments_sent for s in sources),
        "retransmits": sum(s.stats.retransmits for s in sources),
        "timeouts": sum(s.stats.timeouts for s in sources),
        "congestion_drops": star.network.total_dropped(),
        "injected_drops": stats.injected_drops,
        "corrupted": stats.corrupted,
        "delayed": stats.delayed,
        "down_drops": stats.down_drops,
        "evictions": stats.evictions,
        "outages": stats.outages,
    }
    return meta


def _fixture_path(protocol: str) -> Path:
    return GOLDEN_DIR / f"faults_{protocol}.json"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_golden_fault_trace(protocol, regen_golden):
    meta = run_golden_fault_scenario(protocol)

    # The fixture must keep exercising every impairment it certifies —
    # a plan the flows dodge guards nothing.  (down_drops are not
    # asserted: whether a packet is mid-propagation during the 10 ms
    # outage is protocol-dependent.)
    assert meta["injected_drops"] > 0, "loss burst stopped biting"
    assert meta["corrupted"] > 0, "corrupt window stopped biting"
    assert meta["delayed"] > 0, "jitter window stopped biting"
    assert meta["evictions"] > 0, "buffer shrink stopped evicting"
    assert meta["outages"] == 1
    assert meta["retransmits"] > 0, "scenario lost its recovery coverage"

    path = _fixture_path(protocol)
    if regen_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; record it with "
            "'python -m pytest tests/test_golden_faults.py --regen-golden' "
            "and commit the result"
        )
    expected = json.loads(path.read_text())
    assert meta["trace_sha256"] == expected["trace_sha256"], (
        f"{protocol}: the chaos-mode packet trace diverged from the "
        f"recorded golden fixture (got {meta} vs recorded {expected}). "
        "If this behavior change is intended, re-record with "
        "--regen-golden; otherwise the fault schedule or its draw order "
        "changed."
    )
    assert meta == expected


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_golden_fault_scenario_is_deterministic(protocol):
    """Same seed + same plan ⇒ identical fault schedule and trace."""
    assert run_golden_fault_scenario(protocol) == run_golden_fault_scenario(protocol)


def test_idle_fault_state_leaves_golden_trace_unchanged():
    """An armed-but-idle plan must not perturb the fault-free trace.

    The plan schedules its only window *after* the horizon, so every
    delivery traverses the attached fault state's ``filter_delivery``
    with no active window — which must draw no randomness and add no
    events, leaving the trace byte-identical to the fault-free golden
    fixture recorded by ``test_golden_traces.py``.
    """
    idle = FaultPlan.of(
        [LossBurst(time=HORIZON + 1.0, link=BOTTLENECK, rate=0.5, duration=0.1)]
    )
    meta = run_golden_fault_scenario("reno", plan=idle)
    baseline = json.loads((GOLDEN_DIR / "reno.json").read_text())
    # The fixture hash covers fault counters too, so compare the parts
    # shared with the fault-free fixture instead of the digest.
    assert meta["n_records"] == baseline["n_records"]
    assert meta["events_executed"] == baseline["events_executed"]
    assert meta["segments_sent"] == baseline["segments_sent"]
    assert meta["retransmits"] == baseline["retransmits"]
    assert meta["timeouts"] == baseline["timeouts"]
    assert meta["congestion_drops"] == baseline["dropped_packets"]
    assert meta["injected_drops"] == 0 and meta["delayed"] == 0
