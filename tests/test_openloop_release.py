"""Pool-closed connections leave the simulation (DESIGN.md, "State layout").

When a pool closes a session the driver banks its RTOs and, if neither
of its sources ever retransmitted, detaches its four agents from the
front-end and the server, so nothing holds the session any more.  A
session that retransmitted stays attached.  ``NeverReleaseDriver`` in
``tests.helpers`` keeps every session attached and in a roster, and the
same program must give the same bytes under both drivers.
"""

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.http.apps import HttpSession
from repro.http.openloop import (
    FanoutSpec,
    OpenLoopDriver,
    PoissonArrivals,
    SessionConfig,
    compile_schedule,
)
from repro.net.packet import ACK, DATA, Packet
from repro.net.topology import build_star
from repro.obs import Telemetry, TraceSpec
from repro.sim.kernel import Simulator
from repro.tcp import factory
from repro.tcp.base import TcpConfig, TcpSink
from tests.helpers import FAST, NeverReleaseDriver
from tests.test_batch_equivalence import (
    HORIZON,
    TICK,
    build_schedule,
    network_stats,
    ticks,
)


def lossy_schedule(seed=1):
    return compile_schedule(
        PoissonArrivals(200.0),
        SessionConfig(
            mean_requests=2.0, think_time_s=0.02, fanout=FanoutSpec(leaves=8)
        ),
        seed=seed,
        horizon=0.2,
    )


def lossy_driver(sim, driver_cls=OpenLoopDriver, protocol="reno"):
    """Two servers behind 8-packet buffers: fan-out bursts overflow the
    front-end port, so some sessions retransmit and some never do."""
    star = build_star(sim, 2, buffer_pkts=8)
    driver = driver_cls(
        sim, star.frontend, star.servers, protocol, config=TcpConfig(**FAST),
        idle_timeout_s=0.005, max_reuse=3,
    )
    return star, driver


# ----------------------------------------------------------------------
# What is freed and what stays
# ----------------------------------------------------------------------
@pytest.fixture
def weakrefable(monkeypatch):
    """Swap in subclasses of the session and agent classes that accept
    weak references (the slotted originals do not)."""
    class Session(HttpSession):
        pass

    class Sink(TcpSink):
        pass

    factory.source_class("trim")
    for name, cls in list(factory.PROTOCOLS.items()):
        monkeypatch.setitem(factory.PROTOCOLS, name, type(cls.__name__, (cls,), {}))
    monkeypatch.setattr("repro.http.openloop.driver.HttpSession", Session)
    monkeypatch.setattr(factory, "TcpSink", Sink)


@pytest.mark.parametrize("protocol", ["reno", "trim"])
def test_released_session_and_its_agents_are_freed(weakrefable, protocol):
    sim = Simulator(check_invariants=False)
    star, driver = lossy_driver(sim, protocol=protocol)
    opened = []  # (weakref to the session, weakrefs to its four agents, flows)
    retransmitted = {}  # flow id of the request -> at its close
    for pool in driver.pools:
        def open_session(conn_id, make=pool.factory):
            session = make(conn_id)
            flows = (session.request_source.flow_id, session.response_source.flow_id)
            agents = [
                host.agent_for(flow)
                for host in (star.frontend, session.server)
                for flow in flows
            ]
            opened.append((
                weakref.ref(session), [weakref.ref(a) for a in agents], flows,
                session.server,
            ))
            return session

        def close_session(session, close=pool.on_close):
            retransmitted[session.request_source.flow_id] = bool(
                session.request_source.stats.retransmits
                or session.response_source.stats.retransmits
            )
            close(session)

        pool.factory = open_session
        pool.on_close = close_session
    run = driver.play(lossy_schedule())
    gc.disable()
    try:
        sim.run()  # to an empty queue: every pool closes every session
        assert run.completed == run.offered
        assert sim.pending == 0 and len(retransmitted) == len(opened)
        freed = kept = 0
        for session_ref, agent_refs, flows, server in opened:
            attached = [
                host.agent_for(flow)
                for host in (star.frontend, server)
                for flow in flows
            ]
            if retransmitted[flows[0]]:
                kept += 1  # its agents stay; the session object may go
                assert attached == [ref() for ref in agent_refs]
                assert None not in attached
            else:
                freed += 1
                assert session_ref() is None
                assert [ref() for ref in agent_refs] == [None] * 4
                assert attached == [None] * 4
    finally:
        gc.enable()
    assert freed and kept


def test_a_packet_for_a_detached_flow_still_raises():
    sim = Simulator(check_invariants=False)
    star, driver = lossy_driver(sim)
    closed = []
    for pool in driver.pools:
        pool.on_close = lambda session, close=pool.on_close: (
            closed.append(session), close(session)
        )
    driver.play(lossy_schedule())
    sim.run()
    released = [
        s for s in closed
        if star.frontend.agent_for(s.response_source.flow_id) is None
    ]
    assert released
    session = released[0]
    response = session.response_source.flow_id
    data = Packet(response, session.server.node_id, star.frontend.node_id, DATA)
    with pytest.raises(RuntimeError, match=f"no agent for flow {response}"):
        star.frontend.receive(data)
    ack = Packet(response, star.frontend.node_id, session.server.node_id, ACK)
    with pytest.raises(RuntimeError, match=f"no agent for flow {response}"):
        session.server.receive(ack)


def test_detach_agent_of_an_unknown_flow_raises():
    sim = Simulator()
    star = build_star(sim, 1)
    TcpSink(sim, star.frontend, flow_id=4)
    star.frontend.detach_agent(4)
    with pytest.raises(ValueError, match="flow 4 is not attached"):
        star.frontend.detach_agent(4)
    with pytest.raises(ValueError, match="flow 7 is not attached"):
        star.servers[0].detach_agent(7)


# ----------------------------------------------------------------------
# Release changes nothing a run reports
# ----------------------------------------------------------------------
#: ``test_batch_equivalence``'s programs with fan-outs of up to 16 and
#: responses of up to 48 segments: an 8-packet buffer then loses the
#: tails of short responses and whole windows of long ones, so RTOs fire.
programs = st.fixed_dictionaries(
    {
        "groups": st.lists(
            st.tuples(ticks, st.integers(min_value=1, max_value=16)),
            min_size=1, max_size=12,
        ),
        "sizes": st.lists(
            st.integers(min_value=1, max_value=70_000), min_size=1, max_size=8
        ),
        "slices": st.lists(ticks, max_size=4),
        "n_servers": st.integers(min_value=1, max_value=3),
        "max_reuse": st.sampled_from([None, 1, 2, 5]),
        "idle_ticks": st.sampled_from([1, 5, 50]),
    }
)

def drive(driver_cls, program, protocol):
    telemetry = Telemetry(TraceSpec.parse("session,pool"))
    sim = Simulator(check_invariants=False, telemetry=telemetry)
    star = build_star(sim, program["n_servers"], buffer_pkts=8)
    driver = driver_cls(
        sim, star.frontend, star.servers, protocol,
        config=factory.default_config(protocol, **FAST),
        idle_timeout_s=program["idle_ticks"] * TICK,
        max_reuse=program["max_reuse"],
    )
    run = driver.play(build_schedule(program))
    progress = []
    for tick in sorted(program["slices"]):
        sim.run(until=tick * TICK)
        progress.append((run.issued, run.completed, driver.total_timeouts()))
    sim.run(until=HORIZON)
    driver.check_conservation()
    seen = (
        telemetry.rows(),
        dataclasses.asdict(run),
        dataclasses.asdict(driver.pool_stats()),
        network_stats(star.network),
        progress,
        driver.total_timeouts(),
        repr(sim.now),
        sim.events_executed,
    )
    flows = range(2 * driver.pool_stats().opened)  # the driver's flow ids
    detached = sum(star.frontend.agent_for(flow) is None for flow in flows)
    return seen, detached, len(flows)


@settings(max_examples=100, deadline=None)
@given(program=programs, protocol=st.sampled_from(["reno", "trim", "tracks"]))
def test_property_release_equals_never_release(program, protocol):
    released, _, _ = drive(OpenLoopDriver, program, protocol)
    reference, detached, _ = drive(NeverReleaseDriver, program, protocol)
    assert released == reference
    assert detached == 0
    assert released[1]["issued"] == released[1]["offered"]  # the run really ran


def test_the_program_reaches_rtos_and_releases():
    """The program's shape does exercise both paths: one fixed draw
    has RTOs and sessions released and kept alike."""
    program = {
        "groups": [(0, 6), (0, 6), (4, 6), (20, 3), (21, 6)],
        "sizes": [12_000, 9_000, 3_000],
        "slices": [],
        "n_servers": 2,
        "max_reuse": 2,
        "idle_ticks": 5,
    }
    released, detached, flows = drive(OpenLoopDriver, program, "reno")
    assert released == drive(NeverReleaseDriver, program, "reno")[0]
    assert released[5] > 0  # RTOs
    assert 0 < detached < flows
