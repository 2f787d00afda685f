"""Unit tests for link serialization and delivery timing."""

import pytest

from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import DATA, Packet
from repro.net.queues import DropTailQueue, RedQueue
from repro.sim.kernel import Simulator


class RecordingNode(Node):
    """Endpoint that logs (time, packet) arrivals."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, f"n{node_id}")
        self.received = []

    def receive(self, pkt):
        self.received.append((self.sim.now, pkt))


def make_link(sim, bandwidth=8e6, delay=0.001, capacity=4):
    src = RecordingNode(sim, 0)
    dst = RecordingNode(sim, 1)
    link = Link(sim, src, dst, bandwidth, delay, DropTailQueue(capacity))
    src.attach_link(link)
    return src, dst, link


def pkt(size=1000, seq=0):
    return Packet(flow_id=1, src=0, dst=1, kind=DATA, seq=seq, size_bytes=size)


class TestLinkTiming:
    def test_delivery_time_is_tx_plus_propagation(self):
        sim = Simulator()
        _, dst, link = make_link(sim, bandwidth=8e6, delay=0.001)
        link.send(pkt(size=1000))  # 8000 bits / 8e6 bps = 1 ms tx
        sim.run()
        assert dst.received[0][0] == pytest.approx(0.002)

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        _, dst, link = make_link(sim, bandwidth=8e6, delay=0.0)
        link.send(pkt(size=1000, seq=0))
        link.send(pkt(size=1000, seq=1))
        sim.run()
        times = [t for t, _ in dst.received]
        assert times == pytest.approx([0.001, 0.002])

    def test_fifo_delivery_order(self):
        sim = Simulator()
        _, dst, link = make_link(sim)
        for i in range(3):
            link.send(pkt(seq=i))
        sim.run()
        assert [p.seq for _, p in dst.received] == [0, 1, 2]

    def test_busy_flag_and_backlog(self):
        sim = Simulator()
        _, _, link = make_link(sim, bandwidth=8e3)  # slow: 1s per packet
        link.send(pkt())
        link.send(pkt())
        assert link.busy
        assert link.backlog_pkts == 1

    def test_queue_overflow_drops(self):
        sim = Simulator()
        _, dst, link = make_link(sim, bandwidth=8e3, capacity=2)
        for i in range(5):  # 1 in service + 2 queued + 2 dropped
            link.send(pkt(seq=i))
        sim.run()
        assert len(dst.received) == 3
        assert link.queue.stats.dropped == 2

    def test_stats_accumulate(self):
        sim = Simulator()
        _, _, link = make_link(sim)
        link.send(pkt(size=500))
        link.send(pkt(size=700))
        sim.run()
        assert link.stats.tx_packets == 2
        assert link.stats.tx_bytes == 1200
        assert link.stats.busy_time == pytest.approx((500 + 700) * 8 / 8e6)

    def test_observer_sees_delivery_and_hop_count(self):
        sim = Simulator()
        _, dst, link = make_link(sim)
        seen = []
        link.add_observer(seen.append)
        link.send(pkt())
        sim.run()
        assert len(seen) == 1
        assert seen[0].hops == 1

    def test_idle_after_drain(self):
        sim = Simulator()
        _, _, link = make_link(sim)
        link.send(pkt())
        sim.run()
        assert not link.busy
        assert link.backlog_pkts == 0

    def test_validation(self):
        sim = Simulator()
        src = RecordingNode(sim, 0)
        dst = RecordingNode(sim, 1)
        with pytest.raises(ValueError):
            Link(sim, src, dst, 0.0, 0.001, DropTailQueue(1))
        with pytest.raises(ValueError):
            Link(sim, src, dst, 1e6, -0.1, DropTailQueue(1))

    def test_attach_link_requires_matching_source(self):
        sim = Simulator()
        src = RecordingNode(sim, 0)
        dst = RecordingNode(sim, 1)
        link = Link(sim, src, dst, 1e6, 0.0, DropTailQueue(1))
        with pytest.raises(ValueError):
            dst.attach_link(link)


class TestDeliveryObservers:
    """Multi-observer dispatch on the delivery path."""

    def test_observers_run_in_registration_order(self):
        sim = Simulator()
        _, _, link = make_link(sim)
        order = []
        link.add_observer(lambda p: order.append("a"))
        link.add_observer(lambda p: order.append("b"))
        link.send(pkt())
        sim.run()
        assert order == ["a", "b"]

    def test_remove_middle_observer(self):
        sim = Simulator()
        _, _, link = make_link(sim)
        order = []
        hooks = [lambda p, i=i: order.append(i) for i in range(3)]
        for hook in hooks:
            link.add_observer(hook)
        link.remove_observer(hooks[1])
        link.send(pkt())
        sim.run()
        assert order == [0, 2]

    def test_remove_unknown_observer_is_lenient(self):
        sim = Simulator()
        _, _, link = make_link(sim)
        link.remove_observer(lambda p: None)  # never registered: no raise


class TestQueueSwap:
    """Mid-run egress-queue replacement (drop-tail → RED and back)."""

    def backlogged_link(self, capacity=8):
        # 8 kbps ⇒ 1 s per 1000-byte packet: the backlog stays resident.
        sim = Simulator()
        src, dst, link = make_link(sim, bandwidth=8e3, delay=0.0,
                                   capacity=capacity)
        for i in range(4):  # 1 in service + 3 queued
            link.send(pkt(seq=i))
        assert link.backlog_pkts == 3
        return sim, dst, link

    def test_swap_migrates_backlog_fifo_and_balances_stats(self):
        sim, dst, link = self.backlogged_link()
        old = link.queue
        red = RedQueue(sim, 8, min_threshold=2, max_threshold=4)
        link.queue = red
        # The three waiting packets moved over in FIFO order; the old
        # queue counts the handoff as dequeues, so both sides conserve.
        assert link.backlog_pkts == 3
        assert old.stats.enqueued == old.stats.dequeued == 3
        assert len(old) == 0
        assert red.stats.enqueued == 3
        sim.run()
        assert [p.seq for _, p in dst.received] == [0, 1, 2, 3]
        assert red.stats.enqueued == red.stats.dequeued + red.stats.evicted + len(red)

    def test_swap_applies_new_queue_admission_policy(self):
        sim, dst, link = self.backlogged_link()
        small = DropTailQueue(2)
        link.queue = small
        # The third migrated packet overflows the smaller queue.
        assert link.backlog_pkts == 2
        assert small.stats.dropped == 1
        sim.run()
        assert [p.seq for _, p in dst.received] == [0, 1, 2]

    def test_swap_to_same_queue_does_not_self_drain(self):
        sim, _, link = self.backlogged_link()
        q = link.queue
        link.queue = q
        assert link.backlog_pkts == 3
        assert q.stats.dequeued == 0

    def test_swap_registers_with_invariants_once(self):
        sim = Simulator(check_invariants=True)
        _, _, link = make_link(sim)
        registered = len(sim.invariants._queues)
        red = RedQueue(sim, 8, min_threshold=2, max_threshold=4)
        link.queue = red
        link.queue = red  # re-assignment must not double-register
        assert len(sim.invariants._queues) == registered + 1
        sim.invariants.check_all()  # migrated accounting stays balanced


class TestLinkUpDown:
    def test_set_down_loses_in_flight_packet(self):
        sim = Simulator()
        _, dst, link = make_link(sim, bandwidth=8e6, delay=0.01)
        link.send(pkt())  # tx done at 1 ms, delivery due at 11 ms
        sim.schedule_at(0.005, link.set_down)
        sim.run()
        assert dst.received == []
        assert not link.up

    def test_arrivals_while_down_queue_and_resume_on_up(self):
        sim = Simulator()
        _, dst, link = make_link(sim, bandwidth=8e6, delay=0.0)
        link.set_down()
        link.send(pkt(seq=0))
        link.send(pkt(seq=1))
        assert link.backlog_pkts == 2
        assert not link.busy
        sim.schedule_at(0.01, link.set_up)
        sim.run()
        assert [p.seq for _, p in dst.received] == [0, 1]
        times = [t for t, _ in dst.received]
        assert times == pytest.approx([0.011, 0.012])

    def test_set_up_when_already_up_is_noop(self):
        sim = Simulator()
        _, dst, link = make_link(sim)
        link.set_up()
        link.send(pkt())
        sim.run()
        assert len(dst.received) == 1

    def test_outage_mid_serialization_parks_transmitter(self):
        sim = Simulator()
        _, dst, link = make_link(sim, bandwidth=8e3, delay=0.0)  # 1 s/pkt
        link.send(pkt(seq=0))
        link.send(pkt(seq=1))
        sim.schedule_at(0.5, link.set_down)  # mid-serialization of seq 0
        sim.run(until=3.0)
        # seq 0 finished serializing but was lost in propagation; seq 1
        # stays parked in the queue until the link comes back.
        assert dst.received == []
        assert link.backlog_pkts == 1
        assert not link.busy
        link.set_up()
        sim.run(until=5.0)
        assert [p.seq for _, p in dst.received] == [1]
