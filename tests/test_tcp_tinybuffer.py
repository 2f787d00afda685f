"""Behavior tests for Tiny Buffer TCP (paced, BDP-bounded sender)."""

import pytest

from repro.net.packet import ACK, Packet
from repro.tcp.base import MIN_CWND, TcpConfig
from repro.tcp.factory import default_config
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair


def pair(**kwargs):
    config = default_config("tinybuffer", **FAST)
    return make_pair("tinybuffer", config=config, **kwargs)


class TestDefaults:
    def test_factory_forces_pacing(self):
        assert default_config("tinybuffer").pacing is True

    def test_constructor_forces_pacing_even_when_config_disables_it(self):
        sim, star, source, sink = make_pair(
            "tinybuffer", config=TcpConfig(pacing=False, **FAST)
        )
        assert source.config.pacing is True

    def test_factory_marks_ect(self):
        assert default_config("tinybuffer").ecn_capable is True


class TestWindowClamp:
    def test_cwnd_clamps_near_bdp(self):
        sim, star, source, sink = pair(
            bandwidth=100e6, delay=200e-6, buffer_pkts=64
        )
        source.send_message(400)
        sim.run(until=1.0)
        assert sink.delivered_segments == 400
        target = source.target_cwnd()
        assert target is not None
        # The clamp engaged: the window sits at the BDP-plus-headroom
        # target instead of inflating toward the 64-packet buffer.
        assert source.cwnd == pytest.approx(target)
        # BDP here is ~2.2 segments + 2 headroom; far below the buffer.
        assert target < 16

    def test_min_rtt_tracks_running_minimum(self):
        sim, star, source, sink = pair()
        source.send_message(50)
        sim.run(until=0.5)
        assert source.min_rtt < float("inf")
        # min_rtt can never exceed the smoothed estimate's neighborhood.
        assert source.min_rtt <= source.rtt.srtt + 1e-9

    def test_no_estimate_before_first_ack(self):
        sim, star, source, sink = pair()
        assert source.target_cwnd() is None


class TestLossAndEcn:
    def test_single_loss_repaired_without_timeout(self):
        sim, star, source, sink = pair()
        install_loss(star.servers[0].nic, drop_seqs_once([7]))
        source.send_message(40)
        sim.run(until=1.0)
        assert sink.delivered_segments == 40
        assert source.stats.retransmits >= 1
        assert source.stats.timeouts == 0

    def test_loss_returns_window_to_target_not_below(self):
        sim, star, source, sink = pair(
            bandwidth=100e6, delay=200e-6, buffer_pkts=64
        )
        source.send_message(200)
        sim.run(until=0.3)
        target = source.target_cwnd()
        assert target is not None
        new_ssthresh = source._halve_window_on_loss()
        # With the window already at/below target, a loss event lands
        # at min(flight/2, target) floored at min_cwnd — never a deep
        # multiplicative undershoot below the configured floor.
        assert new_ssthresh >= MIN_CWND
        assert new_ssthresh <= max(target, MIN_CWND)

    def test_ece_feedback_sheds_one_segment(self):
        sim, star, source, sink = pair()
        source.send_message(60)
        sim.run(until=0.2)
        cwnd_before = source.cwnd
        ack = Packet(
            flow_id=1,
            src=star.frontend.node_id,
            dst=star.servers[0].node_id,
            kind=ACK,
            seq=source.highest_ack,  # duplicate ACK: no window increase
        )
        ack.ece = True
        suppressed = source._on_ack_pre_increase(0, ack)
        assert suppressed is True
        assert source.cwnd == pytest.approx(
            max(MIN_CWND, cwnd_before - 1.0)
        )


class TestBurst:
    def test_burst_loss_recovers_cleanly(self):
        sim, star, source, sink = pair()
        install_loss(star.servers[0].nic, drop_seqs_once([10, 11, 12, 13, 14]))
        source.send_message(80)
        sim.run(until=1.5)
        assert sink.delivered_segments == 80
        assert source.stats.retransmits >= 5
