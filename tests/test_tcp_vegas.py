"""Tests for the TCP Vegas baseline."""

from repro.tcp.factory import default_config
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair


def vegas_pair(**kwargs):
    config = kwargs.pop("config", default_config("vegas", **FAST))
    return make_pair("vegas", config=config, **kwargs)


class TestVegas:
    def test_registered_in_factory(self):
        from repro.tcp.factory import source_class
        from repro.tcp.vegas import VegasSource

        assert source_class("vegas") is VegasSource

    def test_completes_clean_transfer(self):
        sim, _star, source, sink = vegas_pair()
        source.send_message(400)
        sim.run(until=1.0)
        assert sink.next_expected == 400
        assert source.stats.timeouts == 0

    def test_base_rtt_tracks_minimum(self):
        sim, _star, source, _sink = vegas_pair()
        source.send_message(50)
        sim.run(until=1.0)
        assert source.base_rtt < 1e-3  # the star's queue-free RTT

    def test_holds_small_backlog_on_bottleneck(self):
        """Vegas parks ALPHA..BETA packets in the queue — never fills it."""
        sim, star, source, _sink = vegas_pair(frontend_bandwidth=200e6)
        source.send_message(30000)
        peak = {"v": 0}

        def probe():
            peak["v"] = max(peak["v"], star.bottleneck.backlog_pkts)
            if sim.now < 0.3:
                sim.schedule(1e-4, probe)

        sim.schedule_at(0.05, probe)
        sim.run(until=0.3)
        assert peak["v"] < 30
        assert source.stats.timeouts == 0

    def test_loss_recovery_still_reno(self):
        sim, star, source, sink = vegas_pair()
        install_loss(star.bottleneck, drop_seqs_once({10}))
        source.send_message(40)
        sim.run(until=1.0)
        assert sink.next_expected == 40
        assert source.stats.fast_retransmits == 1

    def test_no_probing_mechanism(self):
        """The ablation point: Vegas inherits windows blindly (it has no
        analogue of TRIM's Algorithm 1), so a long train after the ON/OFF
        phase still bursts a stale window into the path."""
        from repro.experiments.motivation import (
            MotivationParams,
            run_motivation,
        )

        vegas = run_motivation(MotivationParams.quick("vegas"))
        trim = run_motivation(MotivationParams.quick("trim"))
        assert max(vegas.inherited_cwnd) > 5 * max(trim.inherited_cwnd)
        assert vegas.dropped_packets > 0
        assert trim.dropped_packets == 0
