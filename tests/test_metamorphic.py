"""Symmetries of the packet model that need no oracle (ROADMAP item 1(c)).

Goldens prove the simulator has not drifted; these prove it hides no
absolute constant where the model says there is none:

* **rescale** — every bandwidth x k and every time / k (link delays,
  ``min_rto`` / ``initial_rto`` / ``max_rto``, start times, the horizon;
  k a power of two, so every float scales exactly) must give the *same
  packet order* on every link and k-scaled timestamps and completion
  times.  The mean-field limit the ROADMAP wants as an oracle rescales
  capacity with N; it presumes exactly this.
* **relabel** — on a topology without ECMP, renaming flow ids renames
  the per-flow results and changes nothing else.
* **null fault** — a fault plan that cannot impair anything (zero
  intensity, zero-length outage, windows no packet crosses, a resize to
  the current size) equals no plan, and draws no randomness.

Both scenarios are wired the way the experiments wire theirs
(``ecn_threshold_for``, ``default_config``, TRIM's ``capacity_pps`` /
``base_rtt`` from the link speeds).  A protocol that breaks a symmetry
is not skipped: it is listed in ``RESCALE_DEVIATIONS`` with the absolute
constant responsible, the test asserts that rescaling *that constant
too* restores the symmetry, and EXPERIMENTS.md "Known deviations"
carries the numbered entry.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.experiments import scenarios
from repro.experiments.faults import FaultsParams, default_fault_plan
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
from repro.net.topology import build_star, build_two_level_tree
from repro.sim.kernel import Simulator
from repro.sim.randomness import derive_seed, seeded_rng
from repro.tcp.base import TcpSink
from repro.tcp.cubic import CubicSource
from repro.tcp.factory import PROTOCOLS, create_source, default_config, source_class
from repro.tcp.tracks import TracksSource

source_class("trim")  # TRIM registers lazily
ALL_PROTOCOLS = sorted(PROTOCOLS)

SCALES = (2, 8)
RTO = 0.01
START = 0.01
HORIZON = 0.5
BLOCK_BYTES = 64 * 1024
STAR_BUFFER_PKTS = 32
SEED = 5


# ----------------------------------------------------------------------
# The two scenarios
# ----------------------------------------------------------------------


def incast(protocol, k=1, flow_ids=None, plan=None):
    """24 synchronized senders through one switch port (Fig. 5/7 shape)."""
    bandwidth, delay = 1e9 * k, 50e-6 / k
    sim = Simulator()
    star = build_star(
        sim,
        24,
        bandwidth_bps=bandwidth,
        delay_s=delay,
        buffer_pkts=STAR_BUFFER_PKTS,
        ecn_threshold_pkts=ecn_threshold_for(protocol, bandwidth),
    )
    return _run(
        sim, star.network, star.servers, star.frontend, protocol, k,
        capacity_pps=packets_per_second(bandwidth),
        base_rtt=path_base_rtt([(delay, bandwidth)] * 2),
        flow_ids=flow_ids, plan=plan,
    )


def tree(protocol, k=1, flow_ids=None, plan=None):
    """3 edge switches x 4 servers behind a fabric switch (Fig. 8 shape)."""
    edge, front = 1e8 * k, 1e9 * k
    edge_delay, front_delay = 20e-6 / k, 10e-6 / k
    sim = Simulator()
    topo = build_two_level_tree(
        sim,
        3,
        servers_per_switch=4,
        edge_bandwidth_bps=edge,
        edge_delay_s=edge_delay,
        frontend_bandwidth_bps=front,
        frontend_delay_s=front_delay,
        buffer_pkts=16,
        ecn_threshold_pkts=ecn_threshold_for(protocol, edge),
    )
    servers = [host for group in topo.server_groups for host in group]
    return _run(
        sim, topo.network, servers, topo.frontend, protocol, k,
        capacity_pps=packets_per_second(edge),
        base_rtt=path_base_rtt(
            [(edge_delay, edge), (edge_delay, edge), (front_delay, front)]
        ),
        flow_ids=flow_ids, plan=plan,
    )


class Run:
    """What a scenario run leaves behind for comparison."""

    def __init__(self, log, sources, messages, rng, injector):
        #: every delivery on every link, in execution order:
        #: (time, link, flow id, seq, kind, bytes, is_retransmission)
        self.log = log
        self.finish_times = [m.finish_time for m in messages]
        self.per_flow = {
            s.flow_id: (s.stats, s.highest_ack, s.cwnd, s.ssthresh) for s in sources
        }
        self.rng_state = rng.bit_generator.state
        self.injector = injector

    @property
    def order(self):
        return [record[1:] for record in self.log]

    @property
    def times(self):
        return [record[0] for record in self.log]


def _run(sim, network, servers, frontend, protocol, k, *, capacity_pps, base_rtt,
         flow_ids, plan):
    config = default_config(
        protocol, min_rto=RTO / k, initial_rto=RTO / k, max_rto=60.0 / k
    )
    extras = {}
    if protocol == "trim":
        extras = dict(capacity_pps=capacity_pps, base_rtt=base_rtt)
    sources = []
    for flow_id, host in zip(flow_ids or range(len(servers)), servers):
        sources.append(
            create_source(
                protocol, sim, host, frontend.node_id,
                flow_id=flow_id, config=config, **extras,
            )
        )
        TcpSink(sim, frontend, flow_id=flow_id)

    log = []
    for link in network.links:
        link.add_observer(
            lambda pkt, name=link.name: log.append(
                (sim.now, name, pkt.flow_id, pkt.seq, pkt.kind, pkt.size_bytes,
                 pkt.is_retransmission)
            )
        )

    messages = []

    def send(source):
        messages.append(source.send_bytes(BLOCK_BYTES))

    # One synchronized block, then a second one per sender after an idle
    # gap (so gap detectors, probes and restarts run) at a seeded offset
    # (so the scenario owns a random stream, as fig8's starts do).
    rng = seeded_rng(derive_seed(SEED, "metamorphic/starts"))
    sim.schedule_at(START / k, lambda: [send(s) for s in sources])
    for source in sources:
        offset = float(rng.uniform(0.0, 5 * RTO / k))
        sim.schedule_at((START + 20 * RTO) / k + offset, send, source)

    injector = None
    if plan is not None:
        injector = FaultInjector(sim, network, plan, seed=SEED).arm()
    sim.run(until=HORIZON / k)
    return Run(log, sources, messages, rng, injector)


SCENARIOS = {"incast": incast, "tree": tree}


@lru_cache(maxsize=None)
def baseline(scenario, protocol):
    return SCENARIOS[scenario](protocol)


def is_rescaled(base, scaled, k, rel_tol=0.0):
    def close(a, b):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b * k, rel_tol=rel_tol, abs_tol=0.0)

    return (
        base.order == scaled.order
        and all(map(close, base.times, scaled.times))
        and all(map(close, base.finish_times, scaled.finish_times))
    )


# ----------------------------------------------------------------------
# (i) Rescale
# ----------------------------------------------------------------------

#: protocols with no absolute constant: bit-exact under rescaling.
RESCALE_SYMMETRIC = ("gip", "reno", "timely", "tinybuffer", "trim", "vegas")


def _hold_ecn_threshold(monkeypatch, k):
    original = scenarios.dctcp_threshold_pkts
    monkeypatch.setattr(
        scenarios, "dctcp_threshold_pkts", lambda bps: original(bps / k)
    )


def _rescale_cubic_c(monkeypatch, k):
    monkeypatch.setattr(CubicSource, "CUBIC_C", CubicSource.CUBIC_C * k**3)


def _rescale_tail_floor(monkeypatch, k):
    monkeypatch.setattr(
        TracksSource, "TAIL_TIMER_FLOOR", TracksSource.TAIL_TIMER_FLOOR / k
    )


#: protocol -> (EXPERIMENTS.md "Known deviations" entry, the constant
#: named there, how to rescale it, tolerance of the restored symmetry).
#: CUBIC's restored run goes through ``x ** (1/3)``, which libm does not
#: promise to be exactly homogeneous: same order, times to 1e-9.
RESCALE_DEVIATIONS = {
    "dctcp": (6, "dctcp_threshold_pkts", _hold_ecn_threshold, 0.0),
    "d2tcp": (6, "dctcp_threshold_pkts", _hold_ecn_threshold, 0.0),
    "l2dct": (6, "dctcp_threshold_pkts", _hold_ecn_threshold, 0.0),
    "cubic": (7, "CUBIC_C", _rescale_cubic_c, 1e-9),
    "tracks": (8, "TAIL_TIMER_FLOOR", _rescale_tail_floor, 0.0),
}


def test_every_protocol_is_classified():
    assert sorted([*RESCALE_SYMMETRIC, *RESCALE_DEVIATIONS]) == ALL_PROTOCOLS


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("protocol", RESCALE_SYMMETRIC)
def test_rescaling_bandwidth_and_time_changes_nothing(protocol, scenario):
    base = baseline(scenario, protocol)
    assert len(base.log) > 5000 and None not in base.finish_times
    for k in SCALES:
        assert is_rescaled(base, SCENARIOS[scenario](protocol, k), k), k


@pytest.mark.parametrize("protocol", sorted(RESCALE_DEVIATIONS))
def test_rescale_deviation_is_exactly_the_named_constant(protocol, monkeypatch):
    """As shipped the protocol breaks the symmetry on the incast; with
    the one constant its "Known deviations" entry names rescaled too,
    it holds on both scenarios — so that constant is the whole story."""
    _entry, _name, rescale_constant, rel_tol = RESCALE_DEVIATIONS[protocol]
    bases = {scenario: baseline(scenario, protocol) for scenario in SCENARIOS}
    for k in SCALES:
        assert not is_rescaled(bases["incast"], incast(protocol, k), k)
    for k in SCALES:
        with monkeypatch.context() as patch:
            rescale_constant(patch, k)
            for scenario, run in SCENARIOS.items():
                scaled = run(protocol, k)
                assert is_rescaled(bases[scenario], scaled, k, rel_tol), (scenario, k)


def test_each_rescale_deviation_has_its_numbered_entry():
    text = (Path(__file__).parent.parent / "EXPERIMENTS.md").read_text()
    section = text[text.index("## Known deviations"):]
    entries = dict(
        re.findall(r"^(\d+)\. (.*?)(?=^\d+\. |^\S|\Z)", section, flags=re.M | re.S)
    )
    for protocol, (entry, constant, _fix, _tol) in RESCALE_DEVIATIONS.items():
        body = entries[str(entry)]
        assert constant in body and f"`{protocol}`" in body, (protocol, entry)


# ----------------------------------------------------------------------
# (ii) Relabel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_relabelling_flow_ids_permutes_per_flow_results(protocol, scenario):
    base = baseline(scenario, protocol)
    n = len(base.per_flow)
    # sparse, shuffled, nowhere equal to the 0..n-1 the baseline uses
    shuffle = seeded_rng(derive_seed(SEED, "relabel")).permutation(n)
    new_ids = [int(i) * 3 + 100 for i in shuffle]
    old_id = {new: old for old, new in enumerate(new_ids)}
    relabelled = SCENARIOS[scenario](protocol, flow_ids=new_ids)
    assert [
        (t, link, old_id[flow], *rest) for t, link, flow, *rest in relabelled.log
    ] == base.log
    assert {old_id[f]: v for f, v in relabelled.per_flow.items()} == base.per_flow
    assert relabelled.finish_times == base.finish_times


# ----------------------------------------------------------------------
# (iii) Null fault
# ----------------------------------------------------------------------

BOTTLENECK = "sw->frontend"
MID_BURST = START + 0.0023  # the first block is on the wire until ~22.6 ms

NULL_PLANS = {
    "empty": FaultPlan(),
    "zero_intensity": default_fault_plan(
        FaultsParams(horizon=HORIZON, buffer_pkts=STAR_BUFFER_PKTS)
    ).scaled(0.0),
    "zero_length_outage": FaultPlan.of(
        [
            LinkDown(time=MID_BURST, link=BOTTLENECK),
            LinkUp(time=MID_BURST, link=BOTTLENECK),
        ]
    ),
    "zero_length_outage_everywhere": FaultPlan.of(
        [LinkDown(time=MID_BURST), LinkUp(time=MID_BURST)]
    ),
    "link_up_on_an_up_link": FaultPlan.of([LinkUp(time=MID_BURST)]),
    "resize_to_the_current_size": FaultPlan.of(
        [BufferResize(time=MID_BURST, link="sw->*", pkts=STAR_BUFFER_PKTS)]
    ),
    "windows_closed_before_the_first_packet": FaultPlan.of(
        [
            LossBurst(time=0.0, rate=1.0, duration=START / 2),
            Corrupt(time=0.001, rate=1.0, duration=START / 4),
            DelayJitter(time=0.002, mean_s=1e-3, duration=START / 4),
        ]
    ),
    "window_opened_after_the_last_packet": FaultPlan.of(
        [LossBurst(time=HORIZON - 0.02, rate=1.0, duration=0.01)]
    ),
}


@pytest.mark.parametrize("protocol", ["reno", "trim"])
@pytest.mark.parametrize("name", sorted(NULL_PLANS))
def test_a_plan_that_impairs_nothing_equals_no_plan(name, protocol):
    base = baseline("incast", protocol)
    assert base.times[0] > START and base.times[-1] < HORIZON - 0.02
    assert any(t > MID_BURST for t in base.times[:2000])  # mid-burst, not idle
    run = incast(protocol, plan=NULL_PLANS[name])
    assert run.log == base.log
    assert run.per_flow == base.per_flow
    assert run.finish_times == base.finish_times
    # the simulation's own stream was consumed identically ...
    assert run.rng_state == base.rng_state
    # ... and no per-link fault stream was drawn from at all
    for link_name, state in run.injector.states.items():
        fresh = seeded_rng(derive_seed(SEED, f"faults/{link_name}"))
        assert state.rng.bit_generator.state == fresh.bit_generator.state
    stats = run.injector.total_stats()
    assert stats.total_losses == 0 and stats.delayed == 0 and stats.evictions == 0
