"""Unit tests for CUBIC, DCTCP, L2DCT, and the GIP-style baseline."""

import pytest

from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig
from repro.tcp.cubic import CubicSource
from repro.tcp.dctcp import DctcpSource
from repro.tcp.factory import (
    ECN_PROTOCOLS,
    default_config,
    make_connection,
    source_class,
)
from repro.tcp.l2dct import L2dctSource
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair


class TestFactory:
    def test_all_protocols_resolve(self):
        for name in ("reno", "cubic", "dctcp", "l2dct", "d2tcp", "gip",
                      "vegas", "trim"):
            assert source_class(name).protocol_name == name

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            source_class("bbr")

    def test_default_config_sets_ecn_for_dctcp_family(self):
        for name in ECN_PROTOCOLS:
            assert default_config(name).ecn_capable

    def test_default_config_plain_for_reno(self):
        config = default_config("reno")
        assert not config.ecn_capable
        assert config.recovery == "reno"

    def test_cubic_gets_newreno_recovery(self):
        assert default_config("cubic").recovery == "newreno"

    def test_make_connection_attaches_to_host(self):
        sim = Simulator()
        star = build_star(sim, 1)
        source, sink = make_connection("cubic", sim, star.servers[0], star.frontend)
        assert star.servers[0].agent_for(1) is source
        assert star.frontend.agent_for(1) is sink
        assert source.config == default_config("cubic")  # config omitted


class TestCubic:
    def test_loss_cut_is_beta(self):
        config = default_config("cubic", **FAST)
        sim, star, source, _sink = make_pair("cubic", config=config)
        install_loss(star.bottleneck, drop_seqs_once({20}))
        source.send_message(60)
        sim.run(until=1.0)
        assert source.w_max > 0
        assert source.stats.fast_retransmits == 1

    def test_fast_convergence_shrinks_w_max(self):
        config = default_config("cubic", **FAST)
        _sim, _star, source, _sink = make_pair("cubic", config=config)
        source.cwnd = 50.0
        source.w_max = 100.0
        source._halve_window_on_loss()
        assert source.w_max == pytest.approx(50.0 * (2 - CubicSource.BETA) / 2)

    def test_no_fast_convergence_above_w_max(self):
        config = default_config("cubic", **FAST)
        _sim, _star, source, _sink = make_pair("cubic", config=config)
        source.cwnd = 100.0
        source.w_max = 50.0
        new_ssthresh = source._halve_window_on_loss()
        assert source.w_max == 100.0
        assert new_ssthresh == pytest.approx(70.0)

    def test_cubic_growth_concave_then_convex(self):
        """Window growth slows approaching w_max then accelerates past it."""
        config = default_config("cubic", initial_ssthresh=2.0, **FAST)
        sim, _star, source, _sink = make_pair("cubic", config=config)
        source.w_max = 30.0
        source.rtt.sample(0.0002)
        source.send_message(4000)
        deltas = []
        last = source.cwnd

        def track():
            nonlocal last
            deltas.append(source.cwnd - last)
            last = source.cwnd

        for i in range(30):
            sim.schedule_at(0.001 * (i + 1), track)
        sim.run(until=0.031)
        assert len(deltas) == 30

    def test_completes_transfer(self):
        config = default_config("cubic", **FAST)
        sim, _star, source, sink = make_pair("cubic", config=config)
        source.send_message(500)
        sim.run(until=1.0)
        assert sink.next_expected == 500


class TestDctcp:
    def test_requires_ecn_config(self):
        with pytest.raises(ValueError, match="ECN"):
            make_pair("dctcp", config=TcpConfig(ecn_capable=False, **FAST))

    def test_alpha_decays_without_marks(self):
        config = default_config("dctcp", **FAST)
        sim, _star, source, _sink = make_pair(
            "dctcp", config=config, ecn_threshold=90
        )
        source.send_message(300)
        sim.run(until=1.0)
        assert source.alpha < 1.0  # started at 1, no marks ever

    def test_marked_window_cuts_and_exits_slow_start(self):
        config = default_config("dctcp", **FAST)
        # The front-end link is the bottleneck so the queue forms at a
        # marking-capable switch port.
        sim, _star, source, sink = make_pair(
            "dctcp", config=config, ecn_threshold=17, buffer_pkts=100,
            frontend_bandwidth=500e6,
        )
        source.send_message(2000)
        sim.run(until=1.0)
        assert sink.next_expected == 2000
        assert source.stats.timeouts == 0
        assert source.ssthresh < 1e12  # a cut ended slow start

    def test_queue_kept_near_threshold(self):
        config = default_config("dctcp", **FAST)
        sim, star, source, _sink = make_pair(
            "dctcp", config=config, ecn_threshold=17, frontend_bandwidth=500e6
        )
        source.send_message(20000)
        peak = {"v": 0}

        def probe():
            peak["v"] = max(peak["v"], star.bottleneck.backlog_pkts)
            if sim.now < 0.3:
                sim.schedule(1e-4, probe)

        sim.schedule_at(0.1, probe)  # skip slow-start transient
        sim.run(until=0.3)
        assert peak["v"] < 60  # well below the 100-packet buffer

    def test_alpha_formula(self):
        config = default_config("dctcp", **FAST)
        _sim, _star, source, _sink = make_pair(
            "dctcp", config=config, ecn_threshold=17
        )
        source.alpha = 0.5
        source._acked_in_window = 8
        source._marked_in_window = 4
        source._window_end = 0

        class FakeAck:
            ack = 0
            ece = False

        source._on_ack_pre_increase(0, FakeAck())
        g = DctcpSource.G
        assert source.alpha == pytest.approx((1 - g) * 0.5 + g * 0.5)


class TestL2dct:
    def test_weight_bounds(self):
        config = default_config("l2dct", **FAST)
        _sim, _star, source, _sink = make_pair(
            "l2dct", config=config, ecn_threshold=17
        )
        assert source._weight() == pytest.approx(L2dctSource.W_MAX)
        source.highest_ack = 10**9
        assert source._weight() == pytest.approx(L2dctSource.W_MIN)

    def test_weight_monotone_decreasing(self):
        config = default_config("l2dct", **FAST)
        _sim, _star, source, _sink = make_pair(
            "l2dct", config=config, ecn_threshold=17
        )
        weights = []
        for acked in (0, 100, 300, 600):
            source.highest_ack = acked
            weights.append(source._weight())
        assert weights == sorted(weights, reverse=True)

    def test_completes_transfer_with_marks(self):
        config = default_config("l2dct", **FAST)
        sim, _star, source, sink = make_pair(
            "l2dct", config=config, ecn_threshold=17, frontend_bandwidth=500e6
        )
        source.send_message(1500)
        sim.run(until=1.0)
        assert sink.next_expected == 1500
        assert source.stats.timeouts == 0

    def test_slow_start_capped_at_reno_rate(self):
        config = default_config("l2dct", **FAST)
        sim, _star, source, _sink = make_pair(
            "l2dct", config=config, ecn_threshold=90
        )
        source.send_message(20)
        sim.run(until=1.0)
        # +1 per ACK at most, exactly like Reno in slow start.
        assert source.cwnd <= 2.0 + 20 + 1e-9


class TestGip:
    def test_restart_at_two_after_gap(self):
        config = default_config("gip", **FAST)
        sim, _star, source, _sink = make_pair("gip", config=config)
        source.send_message(100)
        sim.run(until=0.05)
        cwnd_before = source.cwnd
        assert cwnd_before > 50
        # Idle much longer than the smoothed RTT, then send again.
        sim.schedule_at(0.1, lambda: source.send_message(10))
        sim.run(until=0.1 + 2e-4)
        assert source.cwnd <= cwnd_before
        assert source.cwnd <= 3.0  # restarted at the minimum window

    def test_no_restart_mid_train(self):
        config = default_config("gip", **FAST)
        sim, _star, source, _sink = make_pair("gip", config=config)
        source.send_message(100)
        sim.run(until=0.05)
        assert source.cwnd > 50  # continuous sending never reset it

    def test_completes_onoff_stream(self):
        config = default_config("gip", **FAST)
        sim, _star, source, sink = make_pair("gip", config=config)
        for i in range(5):
            sim.schedule_at(0.01 * (i + 1), lambda: source.send_message(20))
        sim.run(until=1.0)
        assert sink.next_expected == 100
