"""Fixed-layout per-connection state (DESIGN.md, "State layout").

Every class whose instance count scales with connections or hosts is
slotted — the ``TcpSource`` family, ``TcpSink``, ``HttpSession``, the
queues, ``Host`` / ``Switch`` — and the three scoreboards only loss
recovery writes (``_sacked``, ``_recovery_retx``, ``TcpSink._out_of_order``)
start as one shared, immutable empty set, replaced by a private ``set``
on first write.  ``Link`` alone keeps its ``__dict__`` (``install_loss``
shadows ``link.send`` per instance).

The budgets at the bottom are tracemalloc readings on CPython 3.11 with
every ``Simulator``, ``Link`` and ``TcpSource`` held, as bench/observe.py
holds them.  Bytes retained per sender by the 97-sender incast point are
the quantity ``sweep_points`` multiplies by 9 504 (its forked pool worker
holds every object of its 192 points): 8 114 (``trim``) / 7 826
(``reno``) before the layout was fixed, 5 259 / 4 895 with slots, now
3 644 / 3 267 with list FIFOs and no ``messages`` roster — budget 3 900.
Per TCP connection of the ``openloop_sessions`` load-2.0 ``trim`` point,
2 547 with the ``exchanges`` roster, now 1 302 — budget 1 800.  A
drained drop-tail queue kept 1 056 B of its burst in a ``deque``, now 0 —
budget 128.  3.10 and 3.12 are in the CI matrix but not in the build
image, so their readings are unmeasured.
"""

import dataclasses
import gc
import itertools
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.incast import IncastParams, run_incast
from repro.experiments.openloop import OpenLoopParams, run_openloop_point
from repro.http.apps import HttpSession
from repro.net import queues
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import ACK, DATA, Packet
from repro.net.queues import DropTailQueue, EcnQueue, FairQueue, RedQueue
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.sim.randomness import derive_seed
from repro.tcp import factory
from repro.tcp.base import TcpConfig, TcpSource
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair

factory.source_class("trim")  # registers the lazily imported TrimSource
PROTOCOLS = sorted(factory.PROTOCOLS)


def family(root):
    """``root`` and every subclass the package defines (tests subclass
    senders to observe hooks; those may keep a ``__dict__``)."""
    found = [root]
    for cls in root.__subclasses__():
        if cls.__module__.startswith("repro."):
            found.extend(family(cls))
    return found


def session(persistent=True):
    sim = Simulator()
    star = build_star(sim, 1)
    return HttpSession(
        sim, star.frontend, star.servers[0], "trim",
        request_flow_id=1, response_flow_id=2,
        config=TcpConfig(**FAST), persistent=persistent,
    )


def fixed_layout_objects():
    sim, star, source, sink = make_pair()
    switch = star.bottleneck.src_node
    yield from (sink, star.frontend, switch, session(), session(persistent=False))
    yield DropTailQueue(8)
    yield EcnQueue(8, mark_threshold_pkts=4)
    yield FairQueue(8)
    yield RedQueue(sim, 8, min_threshold=2, max_threshold=6)


# ----------------------------------------------------------------------
# (a) structural: no instance carries a __dict__
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_buildable_sender_is_slotted(protocol):
    config = factory.default_config(protocol, **FAST)
    _sim, _star, source, _sink = make_pair(protocol, config=config)
    assert not hasattr(source, "__dict__")


def test_sink_session_queues_and_nodes_are_slotted():
    for obj in fixed_layout_objects():
        assert not hasattr(obj, "__dict__"), type(obj).__name__


@pytest.mark.parametrize("root", [TcpSource, DropTailQueue, Node])
def test_every_subclass_declares_its_own_slots(root):
    # a subclass without __slots__ silently regains the __dict__
    assert len(family(root)) > 1
    for cls in family(root):
        assert "__slots__" in vars(cls), cls.__qualname__


# ----------------------------------------------------------------------
# (b) typo guard
# ----------------------------------------------------------------------
def test_undeclared_attribute_raises_at_the_assignment():
    _sim, _star, source, _sink = make_pair("trim")
    with pytest.raises(AttributeError):
        source.cwmd = 2.0  # the misspelling that used to grow state silently
    for obj in fixed_layout_objects():
        with pytest.raises(AttributeError):
            obj.not_declared = 1


# ----------------------------------------------------------------------
# (c) the shared empty scoreboard is copied on first write
# ----------------------------------------------------------------------
def scoreboards(source, sink):
    return [source._sacked, source._recovery_retx, sink._out_of_order]


def two_pairs(**config):
    _sim, _star, source, sink = make_pair(config=TcpConfig(**FAST, **config))
    _sim, _star, other, other_sink = make_pair(config=TcpConfig(**FAST, **config))
    boards, other_boards = scoreboards(source, sink), scoreboards(other, other_sink)
    empty = boards[0]
    assert isinstance(empty, frozenset) and not empty
    assert all(board is empty for board in boards + other_boards)
    return source, sink, other, other_sink, empty


def test_sack_block_gives_the_source_a_private_scoreboard():
    source, _sink, other, _other_sink, empty = two_pairs(sack=True)
    source.send_message(10)
    dupack = Packet(source.flow_id, source.dst_id, source.host.node_id, ACK, ack=-1)
    dupack.sack_blocks = ((1, 2),)
    source.receive_packet(dupack)
    assert source._sacked == {1} and type(source._sacked) is set
    assert other._sacked is empty and not empty


def test_fast_retransmit_gives_the_source_a_private_resent_set():
    source, _sink, other, _other_sink, empty = two_pairs()
    source.send_message(10)
    source._fast_retransmit()
    assert source._recovery_retx == {0} and type(source._recovery_retx) is set
    assert other._recovery_retx is empty and not empty


def test_out_of_order_arrival_gives_the_sink_a_private_buffer():
    source, sink, _other, other_sink, empty = two_pairs()
    data = lambda seq: Packet(
        source.flow_id, source.host.node_id, source.dst_id, DATA, seq=seq
    )
    for seq in (3, 0, 1):
        sink.receive_packet(data(seq))
    assert sink._out_of_order == {3} and type(sink._out_of_order) is set
    assert other_sink._out_of_order is empty and not empty
    sink.receive_packet(data(2))  # the hole fills: no emptied set is kept
    assert sink.next_expected == 4 and sink._out_of_order is empty


def test_timeout_forgets_sack_state_on_a_never_written_source():
    source, sink, _other, _other_sink, empty = two_pairs(sack=True)
    source.send_message(1)
    source._on_rtx_timeout()  # "forget SACK state": nothing to forget
    assert source.stats.timeouts == 1
    assert all(board is empty for board in scoreboards(source, sink)) and not empty


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    losses=st.sets(st.integers(min_value=0, max_value=60), max_size=12),
    trains=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
    sack=st.booleans(),
)
def test_property_live_objects_never_share_a_written_scoreboard(losses, trains, sack):
    sim = Simulator()
    star = build_star(sim, 3)
    config = TcpConfig(sack=sack, **FAST)
    pairs = [
        factory.make_connection(
            "reno", sim, server, star.frontend, flow_id=flow_id, config=config
        )
        for flow_id, server in enumerate(star.servers, start=1)
    ]
    empty = pairs[0][1]._out_of_order
    assert isinstance(empty, frozenset)
    checks = []

    def check(_pkt=None):
        checks.append(sim.now)
        boards = [b for source, sink in pairs for b in scoreboards(source, sink)]
        assert not empty
        assert all(b is empty or type(b) is set for b in boards)
        for one, two in itertools.combinations(boards, 2):
            assert one is not two or one is empty

    # every flow loses the same first transmissions; checked at each delivery
    install_loss(star.bottleneck, drop_seqs_once_per_flow(losses))
    star.bottleneck.add_observer(check)
    for source, _sink in pairs:
        for n_segments in trains:
            source.send_message(n_segments)
    sim.run(until=3.0)
    check()
    assert len(checks) > 1
    assert all(source.all_acked for source, _sink in pairs)


def drop_seqs_once_per_flow(seqs):
    droppers = defaultdict(lambda: drop_seqs_once(seqs))
    return lambda pkt: droppers[pkt.flow_id](pkt)


# ----------------------------------------------------------------------
# (d) budgets: bytes retained per connection, and by an idle queue
# ----------------------------------------------------------------------
BUDGET_BYTES_PER_SENDER = 3_900
BUDGET_BYTES_PER_OPENLOOP_CONNECTION = 1_800
BUDGET_BYTES_IDLE_QUEUE = 128
N_SENDERS = 97


def retained_bytes(monkeypatch, warm, run):
    """``(run(), bytes it left allocated, TcpSources built)`` while every
    ``Simulator``, ``Link`` and ``TcpSource`` is held, as bench/observe.py
    holds them; ``warm()`` first pays imports and one-off module state."""
    for name in ("REPRO_TRACE", "REPRO_CHECK_INVARIANTS"):
        monkeypatch.delenv(name, raising=False)  # the budget is for a bare run
    held = []

    def keep(cls):
        original = cls.__init__

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            held.append(obj)

        monkeypatch.setattr(cls, "__init__", __init__)

    for cls in (Simulator, Link, TcpSource):
        keep(cls)
    warm()
    held.clear()
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        result = run()
        gc.collect()  # transient cycles are not retained state
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, after - before, sum(isinstance(obj, TcpSource) for obj in held)


@pytest.mark.parametrize("protocol", ["trim", "reno"])
def test_retained_bytes_per_incast_sender(protocol, monkeypatch):
    params = IncastParams(
        protocol=protocol, sender_counts=(N_SENDERS,),
        block_bytes=16 * 1024, min_rto=0.01,  # the sweep_points point
    )
    case, retained, sources = retained_bytes(
        monkeypatch, lambda: run_incast(params, 2),
        lambda: run_incast(params, N_SENDERS),
    )
    assert case.completed == N_SENDERS
    assert sources == N_SENDERS
    per_sender = retained / N_SENDERS
    assert per_sender <= BUDGET_BYTES_PER_SENDER, f"{per_sender:.0f} B per sender"


def test_retained_bytes_per_openloop_connection(monkeypatch):
    """The ``openloop_sessions`` load-2.0 ``trim`` point: ~1 560 pooled
    sessions (two TCP connections each) carry ~14 500 exchanges, so a
    roster of finished exchanges or messages would dominate the bytes."""
    params = OpenLoopParams(
        protocol="trim", arrivals="poisson:rate=240", load_factors=(2.0,),
        horizon=1.0, drain=1.0, n_servers=8, mean_requests=2.0,
        think_time_s=0.05, fanout_aggregators=1, fanout_leaves=16,
        idle_timeout_s=0.01, max_reuse=64, bandwidth_bps=1e9, delay_s=50e-6,
        buffer_pkts=100, min_rto=0.01,
    )
    seed = derive_seed(1, "openloop/load2")
    tiny = dataclasses.replace(params, horizon=0.05, drain=0.05)
    case, retained, connections = retained_bytes(
        monkeypatch, lambda: run_openloop_point(tiny, 2.0, seed),
        lambda: run_openloop_point(params, 2.0, seed),
    )
    assert case.completed == case.offered > 10_000
    assert connections == 2 * case.conns_opened
    per_connection = retained / connections
    assert per_connection <= BUDGET_BYTES_PER_OPENLOOP_CONNECTION, (
        f"{per_connection:.0f} B per connection"
    )


@pytest.mark.parametrize("make_queue", [
    lambda: DropTailQueue(100),
    lambda: EcnQueue(100, mark_threshold_pkts=50),
    lambda: RedQueue(Simulator(), 100, min_threshold=20, max_threshold=60),
], ids=["droptail", "ecn", "red"])
def test_drained_queue_keeps_nothing_of_its_burst(make_queue):
    queue = make_queue()
    by_queue_code = [tracemalloc.Filter(True, queues.__file__)]

    def queue_bytes():
        snapshot = tracemalloc.take_snapshot().filter_traces(by_queue_code)
        return sum(trace.size for trace in snapshot.traces)

    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = queue_bytes()
        for seq in range(100):
            assert queue.enqueue(Packet(1, 0, 1, DATA, seq=seq))
        drained = 0
        while queue.dequeue() is not None:
            drained += 1
        after = queue_bytes()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert drained == queue.stats.peak_length == 100 and len(queue) == 0
    assert after - before <= BUDGET_BYTES_IDLE_QUEUE, f"{after - before} B"
