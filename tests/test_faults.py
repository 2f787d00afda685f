"""Unit tests for the deterministic fault-injection subsystem.

Covers the plan layer (validation, canonical ordering, intensity
scaling, the JSON wire form), the per-link :class:`LinkFaultState`
window semantics (draws happen *only* inside active windows), and the
:class:`FaultInjector` compiling a plan onto a live topology — glob
resolution, double-arm refusal, surge delegation, outage accounting,
and the invariant monitor's fault audit trail.  End-to-end determinism
of whole chaos traces lives in ``test_golden_faults.py``.
"""

import math

import pytest

from repro.faults import (
    BackgroundSurge,
    BufferResize,
    Corrupt,
    DelayJitter,
    FaultInjector,
    FaultPlan,
    FaultStats,
    LinkDown,
    LinkFaultState,
    LinkUp,
    LossBurst,
)
from repro.net.packet import DATA, Packet
from repro.net.topology import build_star
from repro.sim.invariants import InvariantMonitor, InvariantViolation
from repro.sim.kernel import Simulator
from repro.sim.randomness import seeded_rng


def pkt(seq=0, size=1000, flow_id=1, src=0, dst=1):
    return Packet(
        flow_id=flow_id, src=src, dst=dst, kind=DATA, seq=seq, size_bytes=size
    )


class TestFaultPlan:
    def test_events_sorted_by_time_with_stable_ties(self):
        down = LinkDown(time=0.2)
        up = LinkUp(time=0.3)
        burst_a = LossBurst(time=0.1, rate=0.5)
        burst_b = LossBurst(time=0.1, rate=0.9)
        plan = FaultPlan.of([up, burst_a, down, burst_b])
        assert plan.events == (burst_a, burst_b, down, up)

    def test_len_bool_iter(self):
        assert not FaultPlan()
        plan = FaultPlan.of([LinkDown(time=0.0)])
        assert plan and len(plan) == 1
        assert list(plan) == [LinkDown(time=0.0)]

    @pytest.mark.parametrize(
        "event",
        [
            LinkDown(time=-1.0),
            LinkDown(time=math.inf),
            LinkDown(time=0.0, link=""),
            LossBurst(time=0.0, rate=0.0),
            LossBurst(time=0.0, rate=1.5),
            LossBurst(time=0.0, duration=0.0),
            Corrupt(time=0.0, rate=0.0),
            DelayJitter(time=0.0, mean_s=0.0),
            DelayJitter(time=0.0, duration=-1.0),
            BufferResize(time=0.0, pkts=0),
            BackgroundSurge(time=0.0, flows=0),
            BackgroundSurge(time=0.0, duration=0.0),
        ],
    )
    def test_invalid_events_rejected(self, event):
        with pytest.raises(ValueError):
            FaultPlan.of([event])

    def test_non_event_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan.of(["link_down"])

    def test_scaled_zero_is_fault_free(self):
        plan = FaultPlan.of([LossBurst(time=0.1), LinkDown(time=0.2)])
        assert plan.scaled(0) == FaultPlan()

    def test_scaled_adjusts_stochastic_magnitudes_only(self):
        plan = FaultPlan.of(
            [
                LossBurst(time=0.1, rate=0.4),
                Corrupt(time=0.2, rate=0.6),
                DelayJitter(time=0.3, mean_s=1e-3),
                BackgroundSurge(time=0.4, flows=3),
                LinkDown(time=0.5),
                BufferResize(time=0.6, pkts=4),
            ]
        )
        doubled = plan.scaled(2.0)
        burst, corrupt, jitter, surge, down, resize = doubled.events
        assert burst.rate == pytest.approx(0.8)
        assert corrupt.rate == 1.0  # clamped
        assert jitter.mean_s == pytest.approx(2e-3)
        assert surge.flows == 6
        assert down == LinkDown(time=0.5)  # discrete events verbatim
        assert resize == BufferResize(time=0.6, pkts=4)

    def test_scaled_keeps_at_least_one_surge_flow(self):
        plan = FaultPlan.of([BackgroundSurge(time=0.0, flows=4)])
        assert plan.scaled(0.01).events[0].flows == 1

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().scaled(-1.0)

    def test_json_round_trip(self):
        plan = FaultPlan.of(
            [
                LossBurst(time=0.1, link="sw->*", rate=0.3, duration=0.05),
                Corrupt(time=0.2, rate=0.02, duration=0.01),
                DelayJitter(time=0.3, mean_s=4e-4, duration=0.1),
                LinkDown(time=0.4, link="sw->frontend"),
                LinkUp(time=0.5, link="sw->frontend"),
                BufferResize(time=0.6, pkts=16),
                BackgroundSurge(time=0.7, flows=2, duration=0.2),
            ]
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_infinite_surge_duration_survives_round_trip(self):
        plan = FaultPlan.of([BackgroundSurge(time=0.1, flows=1)])
        text = plan.to_json()
        assert "Infinity" not in text  # omitted, not serialized
        assert FaultPlan.from_json(text) == plan

    def test_bare_event_list_accepted(self):
        plan = FaultPlan.from_json('[{"kind": "link_down", "time": 0.1}]')
        assert plan.events == (LinkDown(time=0.1),)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ('"nope"', "object or a list"),
            ('[{"time": 0.1}]', "kind"),
            ('[{"kind": "meteor_strike", "time": 0.1}]', "unknown fault kind"),
            ('[{"kind": "link_down", "time": 0.1, "rate": 0.5}]', "unknown field"),
        ],
    )
    def test_malformed_json_rejected_with_pointer(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            FaultPlan.from_json(text)

    def test_dump_and_load(self, tmp_path):
        plan = FaultPlan.of([LossBurst(time=0.1, rate=0.2)])
        path = plan.dump(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan


class TestLinkFaultState:
    def test_loss_window_drops_and_counts(self):
        state = LinkFaultState(seeded_rng(1))
        state.loss_rate = 1.0
        state.loss_until = 1.0
        assert state.filter_delivery(pkt(), now=0.5) < 0.0
        assert state.stats.injected_drops == 1

    def test_corrupt_window_counts_separately(self):
        state = LinkFaultState(seeded_rng(1))
        state.corrupt_rate = 1.0
        state.corrupt_until = 1.0
        assert state.filter_delivery(pkt(), now=0.5) < 0.0
        assert state.stats.corrupted == 1
        assert state.stats.injected_drops == 0

    def test_jitter_window_returns_positive_delay(self):
        state = LinkFaultState(seeded_rng(1))
        state.jitter_mean = 1e-3
        state.jitter_until = 1.0
        extra = state.filter_delivery(pkt(), now=0.5)
        assert extra > 0.0
        assert state.stats.delayed == 1

    def test_expired_window_is_inert(self):
        state = LinkFaultState(seeded_rng(1))
        state.loss_rate = 1.0
        state.loss_until = 0.5
        assert state.filter_delivery(pkt(), now=0.5) == 0.0
        assert state.stats.injected_drops == 0

    def test_no_active_window_draws_no_randomness(self):
        """The determinism keystone: an idle fault state must not touch
        its stream, or arming an inert plan would shift every later draw."""
        state = LinkFaultState(seeded_rng(1))
        for k in range(10):
            assert state.filter_delivery(pkt(seq=k), now=float(k)) == 0.0
        assert state.rng.random(4) == seeded_rng(1).random(4)

    def test_same_seed_same_verdicts(self):
        def verdicts(seed):
            state = LinkFaultState(seeded_rng(seed))
            state.loss_rate = 0.5
            state.loss_until = 100.0
            state.jitter_mean = 1e-3
            state.jitter_until = 100.0
            return [state.filter_delivery(pkt(seq=k), now=1.0) for k in range(50)]

        assert verdicts(7) == verdicts(7)
        assert verdicts(7) != verdicts(8)


class TestFaultStats:
    def test_addition_and_totals(self):
        a = FaultStats(injected_drops=1, corrupted=2, down_drops=3, delayed=4)
        b = FaultStats(injected_drops=10, outages=1, surge_flows=2, evictions=5)
        total = a + b
        assert total.injected_drops == 11
        assert total.corrupted == 2
        assert total.down_drops == 3
        assert total.delayed == 4
        assert total.outages == 1
        assert total.surge_flows == 2
        assert total.evictions == 5
        assert total.total_losses == 11 + 2 + 3


class _NullAgent:
    def __init__(self):
        self.received = []

    def receive_packet(self, pkt):
        self.received.append(pkt)


class TestFaultInjector:
    def make_star(self, **kwargs):
        sim = Simulator()
        star = build_star(sim, 2, **kwargs)
        return sim, star

    def test_glob_resolves_against_link_names(self):
        sim, star = self.make_star()
        plan = FaultPlan.of([LossBurst(time=0.0, link="sw->*")])
        injector = FaultInjector(sim, star.network, plan, seed=1).arm()
        assert set(injector.states) == {
            "sw->frontend",
            "sw->server0",
            "sw->server1",
        }

    def test_unmatched_glob_raises_with_link_inventory(self):
        sim, star = self.make_star()
        plan = FaultPlan.of([LinkDown(time=0.0, link="tor->agg")])
        with pytest.raises(ValueError, match="matches no link"):
            FaultInjector(sim, star.network, plan).arm()

    def test_arm_twice_refused(self):
        sim, star = self.make_star()
        plan = FaultPlan.of([LinkDown(time=0.0, link="sw->frontend")])
        injector = FaultInjector(sim, star.network, plan).arm()
        with pytest.raises(RuntimeError, match="twice"):
            injector.arm()

    def test_surge_without_factory_refused_at_arm(self):
        sim, star = self.make_star()
        plan = FaultPlan.of([BackgroundSurge(time=0.0, flows=1)])
        with pytest.raises(ValueError, match="surge_factory"):
            FaultInjector(sim, star.network, plan).arm()

    def test_surge_factory_called_per_flow_and_stopped(self):
        sim, star = self.make_star()
        started, stopped = [], []

        def factory(index):
            started.append(index)
            return lambda: stopped.append(index)

        plan = FaultPlan.of(
            [BackgroundSurge(time=0.01, flows=2, duration=0.02)]
        )
        injector = FaultInjector(
            sim, star.network, plan, surge_factory=factory
        ).arm()
        sim.run(until=0.05)
        assert started == [0, 1]
        assert stopped == [0, 1]
        assert injector.total_stats().surge_flows == 2

    def test_infinite_surge_never_stopped(self):
        sim, star = self.make_star()
        stopped = []

        def factory(index):
            return lambda: stopped.append(index)

        plan = FaultPlan.of([BackgroundSurge(time=0.01, flows=1)])
        FaultInjector(sim, star.network, plan, surge_factory=factory).arm()
        sim.run(until=1.0)
        assert stopped == []

    def test_outage_drops_in_flight_packet_and_counts(self):
        # tx(1000B @ 1Gbps) = 8 µs, +50 µs propagation ⇒ delivery at
        # 58 µs.  The outage at 30 µs catches the packet mid-flight.
        sim, star = self.make_star()
        frontend_agent = _NullAgent()
        star.frontend.attach_agent(1, frontend_agent)
        plan = FaultPlan.of(
            [
                LinkDown(time=30e-6, link="sw->frontend"),
                LinkUp(time=200e-6, link="sw->frontend"),
            ]
        )
        injector = FaultInjector(sim, star.network, plan, seed=3).arm()
        sim.schedule_at(
            0.0,
            lambda: star.bottleneck.send(
                pkt(dst=star.frontend.node_id)
            ),
        )
        sim.run(until=0.001)
        stats = injector.total_stats()
        assert stats.outages == 1
        assert stats.down_drops == 1
        assert frontend_agent.received == []

    def test_link_up_resumes_queued_backlog(self):
        sim, star = self.make_star()
        frontend_agent = _NullAgent()
        star.frontend.attach_agent(1, frontend_agent)
        plan = FaultPlan.of(
            [
                LinkDown(time=0.0, link="sw->frontend"),
                LinkUp(time=0.001, link="sw->frontend"),
            ]
        )
        FaultInjector(sim, star.network, plan, seed=3).arm()
        # Sent while the carrier is down: queues, survives, delivers
        # only after the LinkUp restarts the transmitter.
        sim.schedule_at(
            0.0005,
            lambda: star.bottleneck.send(pkt(dst=star.frontend.node_id)),
        )
        sim.run(until=0.01)
        assert len(frontend_agent.received) == 1
        assert not star.bottleneck.busy

    def test_buffer_resize_evicts_resident_backlog(self):
        # A slow bottleneck so the backlog is still resident when the
        # shrink fires: 8 ms per packet at 1 Mbps.
        sim, star = self.make_star(
            frontend_bandwidth_bps=1e6, buffer_pkts=8
        )
        frontend_agent = _NullAgent()
        star.frontend.attach_agent(1, frontend_agent)
        plan = FaultPlan.of([BufferResize(time=0.001, link="sw->frontend", pkts=1)])
        injector = FaultInjector(sim, star.network, plan, seed=3).arm()

        def burst():
            for k in range(5):  # 1 in service + 4 queued
                star.bottleneck.send(pkt(seq=k, dst=star.frontend.node_id))

        sim.schedule_at(0.0, burst)
        sim.run(until=0.1)
        stats = injector.total_stats()
        assert stats.evictions == 3  # backlog 4 shrunk to 1
        assert star.bottleneck.queue.stats.evicted == 3
        # in service + the queue head + the post-shrink survivor
        assert len(frontend_agent.received) == 2
        q = star.bottleneck.queue.stats
        assert q.enqueued == q.dequeued + q.evicted + len(star.bottleneck.queue)

    def test_fault_audit_trail_reaches_invariant_monitor(self):
        sim = Simulator(check_invariants=True)
        star = build_star(sim, 2)
        plan = FaultPlan.of(
            [
                LinkDown(time=0.001, link="sw->frontend"),
                LinkUp(time=0.002, link="sw->frontend"),
            ]
        )
        FaultInjector(sim, star.network, plan, seed=3).arm()
        sim.run(until=0.01)
        assert sim.invariants.faults_seen == 2
        time, description = sim.invariants.last_fault
        assert time == pytest.approx(0.002)
        assert "link_up" in description


class TestInvariantFaultHooks:
    def test_on_fault_out_of_order_raises(self):
        monitor = InvariantMonitor(Simulator())
        monitor.on_fault(0.5, "link_down sw->frontend")
        with pytest.raises(InvariantViolation, match="out of order"):
            monitor.on_fault(0.4, "link_up sw->frontend")

    def test_register_queue_is_idempotent_per_object(self):
        from repro.net.queues import DropTailQueue

        monitor = InvariantMonitor(Simulator())
        q = DropTailQueue(4)
        monitor.register_queue(q, name="a")
        monitor.register_queue(q, name="a")
        other = DropTailQueue(4)
        monitor.register_queue(other, name="b")
        assert len(monitor._queues) == 2
