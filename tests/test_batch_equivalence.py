"""One event per application instant against one event per item.

``OpenLoopDriver.play``, ``run_incast``, the matrix's incast waves, the
fault sweep's foreground start and ``burst_at`` schedule *one* event for
all the items that share an instant; their parents scheduled one event
per item, with consecutive sequence numbers.  ``tests.helpers`` keeps
the per-item shape (``PerRequestDriver`` is the parent's ``play``;
``PerItemSimulator`` splits a batched event back into its items), and
the same inputs must give the same bytes in both arms — telemetry,
counters, every link's stats, the final clock — with
``events_executed`` differing by exactly the events the batch saved.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import faults, incast, matrix
from repro.http.apps import burst_at
from repro.http.openloop import OpenLoopDriver
from repro.http.openloop.sessions import ScheduledRequest, SessionSchedule
from repro.net.topology import build_star
from repro.obs import Telemetry, TraceSpec
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig, TcpSink
from repro.tcp.factory import create_source
from tests.helpers import FAST, PerItemSimulator, PerRequestDriver

TICK = 0.001  # schedule grid: repeated timestamps are the norm
END_TICK = 60  # every request is issued by END_TICK; the run ends later
HORIZON = 1.0


def network_stats(network):
    return [
        dataclasses.astuple(link.stats) + dataclasses.astuple(link.queue.stats)
        for link in network.links
    ]


# ----------------------------------------------------------------------
# OpenLoopDriver.play
# ----------------------------------------------------------------------
ticks = st.integers(min_value=0, max_value=END_TICK)
# (tick, fan-out): a group of ``fanout`` sibling requests at one instant;
# fan-out 1 is a singleton group, tick 0 a group at ``t = 0``, and two
# entries on one tick merge into one larger group.
groups = st.lists(
    st.tuples(ticks, st.integers(min_value=1, max_value=6)),
    min_size=1, max_size=12,
)
programs = st.fixed_dictionaries(
    {
        "groups": groups,
        "sizes": st.lists(
            st.integers(min_value=1, max_value=12_000), min_size=1, max_size=8
        ),
        #: ``run(until=tick * TICK)`` slices; with the same grid as the
        #: schedule they regularly end exactly on a group's time
        "slices": st.lists(ticks, max_size=4),
        "n_servers": st.integers(min_value=1, max_value=3),
        "max_reuse": st.sampled_from([None, 1, 2, 5]),
        "idle_ticks": st.sampled_from([1, 5, 50]),
    }
)


def build_schedule(program):
    sizes = program["sizes"]
    requests = []
    for session, (tick, fanout) in enumerate(program["groups"]):
        for leaf in range(fanout):
            size = sizes[(session + leaf) % len(sizes)]
            requests.append(ScheduledRequest(tick * TICK, session, size))
    return SessionSchedule.from_requests(requests, horizon=HORIZON)


def drive(driver_cls, program, schedule):
    telemetry = Telemetry(TraceSpec.parse("session,pool"))
    sim = Simulator(check_invariants=False, telemetry=telemetry)
    star = build_star(sim, program["n_servers"], buffer_pkts=8)
    driver = driver_cls(
        sim, star.frontend, star.servers, "reno",
        config=TcpConfig(**FAST),
        idle_timeout_s=program["idle_ticks"] * TICK,
        max_reuse=program["max_reuse"],
    )
    run = driver.play(schedule)
    progress = []
    for tick in sorted(program["slices"]):
        sim.run(until=tick * TICK)
        progress.append((run.issued, run.completed, sim.pending > 0))
    sim.run(until=HORIZON)
    driver.check_conservation()
    seen = (
        telemetry.rows(),
        dataclasses.asdict(run),
        dataclasses.asdict(driver.pool_stats()),
        network_stats(star.network),
        progress,
        repr(sim.now),
    )
    return seen, sim.events_executed


@settings(max_examples=150, deadline=None)
@given(program=programs)
def test_property_batched_play_equals_per_request_play(program):
    schedule = build_schedule(program)
    batched, batched_events = drive(OpenLoopDriver, program, schedule)
    reference, reference_events = drive(PerRequestDriver, program, schedule)
    assert batched == reference
    n_groups = len({request.time for request in schedule})
    assert reference_events - batched_events == len(schedule) - n_groups
    assert batched[1]["issued"] == len(schedule)  # the run really ran


def test_batch_is_one_event_and_one_queue_entry():
    schedule = build_schedule(
        {"groups": [(0, 4), (3, 1), (3, 2)], "sizes": [1000]}
    )
    sim = Simulator()
    star = build_star(sim, 2)
    OpenLoopDriver(sim, star.frontend, star.servers, "reno").play(schedule)
    assert sim.pending == 2  # t = 0 and t = 3 ticks: 7 requests, 2 events


# ----------------------------------------------------------------------
# The closure sites: each builds its own Simulator, so the reference
# arm swaps the module's kernel for the one that splits batches.
# ----------------------------------------------------------------------
def both_arms(monkeypatch, module, fn):
    """``fn()`` under the real kernel and under ``PerItemSimulator``;
    returns ``[(result, events_executed), ...]`` in that order."""
    arms = []
    for sim_cls in (Simulator, PerItemSimulator):
        made = []

        def factory(*args, sim_cls=sim_cls, made=made, **kwargs):
            made.append(sim_cls(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(module, "Simulator", factory)
        result = fn()
        (sim,) = made
        arms.append((result, sim.events_executed, repr(sim.now)))
    return arms


@pytest.mark.parametrize("protocol", ["reno", "trim"])
@pytest.mark.parametrize("n_senders", [1, 2, 9, 24])
def test_run_incast_equals_per_sender_start(monkeypatch, protocol, n_senders):
    params = incast.IncastParams(
        protocol=protocol, block_bytes=16 * 1024, min_rto=0.01
    )
    batched, reference = both_arms(
        monkeypatch, incast, lambda: incast.run_incast(params, n_senders)
    )
    assert batched[0] == reference[0]
    assert batched[0].completed == n_senders
    assert batched[2] == reference[2]
    assert reference[1] - batched[1] == n_senders - 1


def test_matrix_incast_waves_equal_per_sender_start(monkeypatch):
    params = matrix.MatrixParams.quick(protocol="reno", waves=2)
    batched, reference = both_arms(
        monkeypatch, matrix,
        lambda: matrix._run_incast(params, 16, "droptail", seed=1),
    )
    assert batched[0] == reference[0]
    assert batched[0].completed == 2 * params.n_senders
    assert batched[2] == reference[2]
    assert reference[1] - batched[1] == 2 * (params.n_senders - 1)


def test_faults_foreground_equals_per_sender_start(monkeypatch):
    params = faults.FaultsParams.quick(protocol="reno")
    batched, reference = both_arms(
        monkeypatch, faults, lambda: faults.run_faults_case(params, 1.0, seed=3)
    )
    assert batched[0] == reference[0]
    assert batched[0].goodput_bps > 0
    assert reference[1] - batched[1] == params.senders - 1


@pytest.mark.parametrize("n_sources", [0, 1, 5])
def test_burst_at_equals_per_source_events(n_sources):
    def run(sim_cls):
        sim = sim_cls()
        star = build_star(sim, max(1, n_sources), buffer_pkts=8)
        sources = []
        for flow_id, server in enumerate(star.servers[:n_sources]):
            sources.append(create_source(
                "reno", sim, server, star.frontend.node_id,
                flow_id=flow_id, config=TcpConfig(**FAST),
            ))
            TcpSink(sim, star.frontend, flow_id=flow_id)
        messages = burst_at(sim, iter(sources), time=0.002, segments=20)
        sim.run()
        seen = (
            [dataclasses.astuple(m) for m in messages],
            network_stats(star.network),
            repr(sim.now),
        )
        return seen, sim.events_executed

    batched, batched_events = run(Simulator)
    reference, reference_events = run(PerItemSimulator)
    assert batched == reference
    assert len(batched[0]) == n_sources
    assert reference_events - batched_events == max(0, n_sources - 1)
