"""The lazy-``_tx_done`` link against the two-events-per-packet reference.

``Link`` only reserves the key of an end-of-serialization event nobody
waits for; ``tests.helpers.EagerLink`` always schedules it.  The same
random program — sends on a time grid where ties are the norm, carrier
flaps, buffer resizes, queue swaps, ``run(until=)`` slices with work
between them — must produce the same deliveries in the same order, the
same counters, and the same answer to every ``busy``/``backlog_pkts``
read, with the lazy link executing no more events than the eager one.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import DATA, Packet
from repro.net.queues import DropTailQueue, EcnQueue, FairQueue, RedQueue
from repro.sim.kernel import Simulator
from tests.helpers import EagerLink

TICK = 0.0005  # grid step; 500 bytes at 8 Mbps serialize in one tick
N_LINKS = 3


class Relay(Node):
    """Logs every arrival; forwards to ``onward`` when it has one."""

    def __init__(self, sim, node_id, log):
        super().__init__(sim, node_id, f"n{node_id}")
        self.log = log
        self.onward = None

    def receive(self, pkt):
        self.log.append((repr(self.sim.now), self.node_id, pkt.seq))
        if self.onward is not None:
            self.onward.send(pkt)


def make_queue(sim, kind, capacity):
    if kind == "ecn":
        return EcnQueue(capacity, mark_threshold_pkts=max(1, capacity // 2))
    if kind == "red":
        return RedQueue(
            sim, capacity + 2, 1, capacity + 1, max_probability=0.5, seed=7
        )
    return {"droptail": DropTailQueue, "fair": FairQueue}[kind](capacity)


queue_kinds = st.sampled_from(["droptail", "ecn", "red", "fair"])
capacities = st.integers(min_value=1, max_value=4)
link_ids = st.integers(min_value=0, max_value=N_LINKS - 1)
ticks = st.integers(min_value=0, max_value=40)

sends = st.tuples(st.just("send"), link_ids, st.sampled_from([500, 1000, 1500]))
action = st.one_of(
    sends,
    sends,  # twice: most of a program should be traffic
    # ``busy``/``backlog_pkts`` are read after every action; this one only reads
    st.tuples(st.just("read"), link_ids, st.just(0)),
    st.tuples(st.sampled_from(["down", "up"]), link_ids, st.just(0)),
    st.tuples(st.just("resize"), link_ids, capacities),
    st.tuples(st.just("swap"), link_ids, st.tuples(queue_kinds, capacities)),
)

programs = st.fixed_dictionaries(
    {
        # per link: (queue kind, capacity, bandwidth multiplier, delay ticks)
        "links": st.lists(
            st.tuples(queue_kinds, capacities, st.sampled_from([1, 2]),
                      st.integers(min_value=0, max_value=2)),
            min_size=N_LINKS, max_size=N_LINKS,
        ),
        #: actions fired from inside the event loop at ``tick * TICK``
        "timed": st.lists(st.tuples(ticks, action), max_size=40),
        #: ``run(until=tick * TICK)`` slices, each followed by actions
        #: performed while no event is executing
        "slices": st.lists(
            st.tuples(ticks, st.lists(action, max_size=3)), max_size=5
        ),
    }
)


def play(link_cls, program):
    sim = Simulator(check_invariants=False)
    log, reads, queues, seq = [], [], [], iter(range(10**6))
    # link 0 -> relay -> link 1 -> sink, and link 2 -> sink directly, so
    # deliveries, forwarded sends and end-of-serializations of different
    # links share timestamps.
    nodes = [Relay(sim, i, log) for i in range(4)]
    ends = [(0, 1), (1, 3), (2, 3)]
    links = []
    for (src, dst), (kind, cap, mult, delay) in zip(ends, program["links"]):
        queue = make_queue(sim, kind, cap)
        queues.append(queue)
        links.append(
            link_cls(sim, nodes[src], nodes[dst], 8e6 * mult, delay * TICK, queue)
        )
    nodes[1].onward = links[1]

    def act(op, idx, arg):
        link = links[idx]
        if op == "send":
            flow = next(seq)
            link.send(Packet(flow_id=flow % 3, src=0, dst=3, kind=DATA,
                             seq=flow, size_bytes=arg))
        elif op == "down":
            link.set_down()
        elif op == "up":
            link.set_up()
        elif op == "resize":
            link.queue.resize(arg)
        elif op == "swap":
            queue = make_queue(sim, *arg)
            queues.append(queue)
            link.queue = queue
        reads.append((repr(sim.now), idx, link.busy, link.backlog_pkts))

    for tick, (op, idx, arg) in program["timed"]:
        sim.schedule_at(tick * TICK, act, op, idx, arg)
    for tick, between in sorted(program["slices"], key=lambda s: s[0]):
        sim.run(until=tick * TICK)
        for op, idx, arg in between:
            act(op, idx, arg)
    sim.run()
    # RED's average and idle mark are where its clock reads show.
    stats = [
        dataclasses.astuple(q.stats) + (len(q),) + tuple(
            repr(getattr(q, attr, None)) for attr in ("avg", "_idle_since")
        )
        for q in queues
    ]
    wire = [dataclasses.astuple(link.stats) for link in links]
    return (log, reads, stats, wire, repr(sim.now)), sim.events_executed


@settings(max_examples=300, deadline=None)
@given(program=programs)
def test_property_lazy_link_equals_eager_link(program):
    lazy, lazy_events = play(Link, program)
    eager, eager_events = play(EagerLink, program)
    assert lazy == eager
    assert lazy_events <= eager_events


# ----------------------------------------------------------------------
# The boundaries the property found first, pinned as plain cases.  Both
# link classes must pass each one: they are statements about the model.
# ----------------------------------------------------------------------
def slow_link(link_cls, sim):
    """tx = 1.0 s per 1000-byte packet, 0.5 s propagation."""
    log = []
    link = link_cls(sim, Relay(sim, 0, log), Relay(sim, 1, log), 8e3, 0.5,
                    DropTailQueue(4))
    return link, log


def packet(seq):
    return Packet(flow_id=1, src=0, dst=1, kind=DATA, seq=seq, size_bytes=1000)


@pytest.mark.parametrize("link_cls", [Link, EagerLink])
class TestRunBoundaries:
    def test_send_between_slices_at_the_instant_the_wire_frees(self, link_cls):
        # run(until=1.0) executes everything at 1.0, including the end
        # of p0's serialization, so p1 goes straight onto the wire.
        sim = Simulator()
        link, log = slow_link(link_cls, sim)
        link.send(packet(0))
        sim.run(until=1.0)
        assert not link.busy
        link.send(packet(1))
        assert link.queue.stats.enqueued == 0
        assert link.busy
        sim.run()
        assert log == [("1.5", 1, 0), ("2.5", 1, 1)]

    def test_busy_before_the_first_run_and_mid_serialization(self, link_cls):
        sim = Simulator()
        link, _ = slow_link(link_cls, sim)
        assert not link.busy
        link.send(packet(0))
        assert link.busy
        sim.run(until=0.999)
        assert link.busy
        link.send(packet(1))
        assert link.backlog_pkts == 1
        sim.run(until=1.0)
        assert link.busy and link.backlog_pkts == 0  # p1 now on the wire

    def test_ties_with_the_end_of_serialization_follow_scheduling_order(
        self, link_cls
    ):
        sim = Simulator()
        link, _ = slow_link(link_cls, sim)
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(link.busy))  # before the send
        link.send(packet(0))  # wire frees at 1.0, keyed after the probe above
        sim.schedule_at(1.0, lambda: seen.append(link.busy))
        assert sim.step()  # stop between the two probes
        assert seen == [True] and link.busy
        sim.run()
        assert seen == [True, False]

    def test_outage_that_outlasts_the_serialization_parks_the_transmitter(
        self, link_cls
    ):
        sim = Simulator()
        link, log = slow_link(link_cls, sim)
        link.send(packet(0))
        sim.run(until=0.5)
        link.set_down()
        sim.run(until=1.2)
        assert not link.busy
        link.send(packet(1))  # waits for the carrier, not for the wire
        assert link.backlog_pkts == 1 and not link.busy
        sim.run(until=1.6)  # p0 lands while the carrier is down: lost
        link.set_up()
        assert link.busy and link.backlog_pkts == 0
        sim.run()
        assert log == [("3.1", 1, 1)]

    def test_swapping_in_red_mid_serialization_keeps_its_clock(self, link_cls):
        # RED times its idle decay on the simulator clock: the queue
        # empties when the wire takes p1 at 1.0, and p2 arriving at 1.5
        # decays the average by 0.5 s of idle drain (two mean tx times).
        sim = Simulator()
        link, _ = slow_link(link_cls, sim)
        link.send(packet(0))
        sim.run(until=0.25)
        red = RedQueue(sim, 8, 2, 6, mean_tx_time=0.25, seed=1)
        link.queue = red
        link.send(packet(1))  # waits behind p0
        sim.run(until=1.5)
        assert red._idle_since == 1.0
        red.avg = 1.0
        link.send(packet(2))  # p1 is on the wire until 2.0
        assert red.avg == (1.0 - RedQueue.WEIGHT) ** 2
