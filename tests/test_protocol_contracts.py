"""Cross-protocol behavioural contracts.

Every congestion controller in the registry must satisfy the same
transport-correctness contract: reliable in-order delivery under
arbitrary loss, window floors, flow isolation, and sane completion
accounting.  Parametrizing over the registry keeps future protocols
honest for free.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.base import MIN_CWND, TcpSink
from repro.tcp.factory import create_source, default_config
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair

ALL_PROTOCOLS = (
    "reno", "cubic", "dctcp", "l2dct", "d2tcp", "gip", "vegas", "trim",
    "tinybuffer", "tracks",
)


def pair(protocol, **kwargs):
    config = default_config(protocol, **FAST)
    extra = {}
    if protocol == "trim":
        extra["capacity_pps"] = 85616.0
    if protocol in ("dctcp", "l2dct", "d2tcp"):
        kwargs.setdefault("ecn_threshold", 17)
    return make_pair(protocol, config=config, **extra, **kwargs)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestReliability:
    def test_clean_path_delivers_in_order(self, protocol):
        sim, _star, source, sink = pair(protocol)
        source.send_message(120)
        sim.run(until=1.0)
        assert sink.next_expected == 120
        assert sink.duplicate_segments == 0

    def test_single_loss_repaired(self, protocol):
        sim, star, source, sink = pair(protocol)
        install_loss(star.bottleneck, drop_seqs_once({7}))
        source.send_message(40)
        sim.run(until=1.0)
        assert sink.next_expected == 40
        assert source.all_acked

    def test_burst_loss_repaired(self, protocol):
        sim, star, source, sink = pair(protocol)
        install_loss(star.bottleneck, drop_seqs_once({10, 11, 12, 13, 14}))
        source.send_message(60)
        sim.run(until=2.0)
        assert sink.next_expected == 60

    def test_window_never_below_floor(self, protocol):
        sim, star, source, _sink = pair(protocol)
        install_loss(star.bottleneck, drop_seqs_once({0, 1}))
        source.send_message(30)
        floor = MIN_CWND

        def check():
            assert source.cwnd >= floor - 1e-9
            if sim.now < 0.5:
                sim.schedule(1e-3, check)

        sim.schedule_at(0.0, check)
        sim.run(until=0.5)

    def test_message_accounting_consistent(self, protocol):
        sim, _star, source, _sink = pair(protocol)
        messages = [source.send_message(10) for _ in range(5)]
        sim.run(until=1.0)
        finishes = [m.finish_time for m in messages]
        assert all(f is not None for f in finishes)
        assert finishes == sorted(finishes)  # FIFO stream completes in order

    def test_onoff_stream_delivers_everything(self, protocol):
        sim, _star, source, sink = pair(protocol)
        total = 0
        for i in range(6):
            n = 5 + 7 * i
            total += n
            sim.schedule_at(0.01 * (i + 1), lambda n=n: source.send_message(n))
        sim.run(until=1.0)
        assert sink.next_expected == total


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestIsolation:
    def test_two_flows_both_complete(self, protocol):
        sim = Simulator()
        star = build_star(
            sim, 2,
            ecn_threshold_pkts=(
                17 if protocol in ("dctcp", "l2dct", "d2tcp") else None
            ),
        )
        config = default_config(protocol, **FAST)
        extra = {"capacity_pps": 85616.0} if protocol == "trim" else {}
        messages = []
        for i, server in enumerate(star.servers):
            src = create_source(
                protocol, sim, server, flow_id=i + 1,
                dst_id=star.frontend.node_id, config=config, **extra,
            )
            TcpSink(sim, star.frontend, flow_id=i + 1)
            messages.append(src.send_message(300))
        sim.run(until=2.0)
        assert all(m.finish_time is not None for m in messages)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    losses=st.sets(st.integers(min_value=0, max_value=59), max_size=12),
    protocol=st.sampled_from(("reno", "cubic", "trim")),
)
def test_property_delivery_under_arbitrary_loss(losses, protocol):
    """Whatever single-transmission losses occur, the stream completes."""
    extra = {"capacity_pps": 85616.0} if protocol == "trim" else {}
    sim, star, source, sink = make_pair(
        protocol, config=default_config(protocol, **FAST), **extra
    )
    install_loss(star.bottleneck, drop_seqs_once(losses))
    source.send_message(60)
    sim.run(until=3.0)
    assert sink.next_expected == 60
    assert source.all_acked
