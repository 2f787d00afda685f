"""Tests for packet pacing (srtt/cwnd send spacing)."""

from repro.metrics.tracing import PacketLogger
from repro.tcp.base import TcpConfig
from tests.helpers import FAST, make_pair


def paced_pair(**kwargs):
    config = kwargs.pop("config", TcpConfig(pacing=True, **FAST))
    return make_pair("reno", config=config, **kwargs)


class TestPacing:
    def test_transfer_still_completes(self):
        sim, _star, source, sink = paced_pair()
        source.send_message(300)
        sim.run(until=1.0)
        assert sink.next_expected == 300
        assert source.all_acked

    def test_sends_are_spaced_not_bursty(self):
        """After the window inflates while app-limited, a paced sender
        spreads the next message across an RTT instead of dumping it."""

        def burstiness(pacing):
            # A larger RTT so srtt/cwnd exceeds the wire serialization
            # time (pacing cannot space packets tighter than the NIC).
            config = TcpConfig(pacing=pacing, **FAST)
            sim, star, source, _sink = make_pair(
                "reno", config=config, delay=500e-6
            )
            logger = PacketLogger(star.network.link_between(
                star.servers[0], star.switch))
            # Grow the window with chatter, then send one 60-seg train.
            for i in range(20):
                sim.schedule_at(0.002 * (i + 1), lambda: source.send_message(2))
            sim.schedule_at(0.06, lambda: source.send_message(60))
            sim.run(until=0.2)
            train = [r.time for r in logger.records if r.seq >= 40]
            gaps = [b - a for a, b in zip(train, train[1:])]
            return min(gaps)

        # Unpaced: back-to-back at wire speed (~11.7 us per segment).
        assert burstiness(pacing=False) < 13e-6
        # Paced: spaced by srtt/cwnd, well above wire spacing.
        assert burstiness(pacing=True) > 13e-6

    def test_pacing_avoids_self_inflicted_nic_drops(self):
        """A 40+ segment window dump overflows the sender's own 30-pkt
        NIC queue; pacing spreads it and loses nothing."""

        def nic_drops(pacing):
            config = TcpConfig(pacing=pacing, **FAST)
            sim, star, source, _sink = make_pair(
                "reno", config=config, buffer_pkts=30, delay=500e-6
            )
            for i in range(40):
                sim.schedule_at(0.002 * (i + 1), lambda: source.send_message(2))
            sim.schedule_at(0.15, lambda: source.send_message(80))
            sim.run(until=0.4)
            nic = star.network.link_between(star.servers[0], star.switch)
            return nic.queue.stats.dropped

        assert nic_drops(pacing=False) > 0
        assert nic_drops(pacing=True) == 0

    def test_pacing_alone_does_not_fix_inheritance(self):
        """The ablation claim: pacing smears the burst but the inherited
        window still overruns the *path*, so contended transfers still
        drop — probing (TRIM) is what shrinks the window itself."""
        from repro.experiments.motivation import (
            MotivationParams,
            run_motivation,
        )
        import repro.experiments.scenarios as scenarios_mod

        original = scenarios_mod.default_config

        def paced_config(protocol, **overrides):
            overrides.setdefault("pacing", True)
            return original(protocol, **overrides)

        # ConnectionSet derives every experiment's config here
        scenarios_mod.default_config = paced_config
        try:
            paced = run_motivation(MotivationParams.quick("reno"))
        finally:
            scenarios_mod.default_config = original
        trim = run_motivation(MotivationParams.quick("trim"))

        # Pacing spreads the burst within an RTT but sends the same
        # volume per RTT: the inherited windows still overrun the path.
        assert paced.dropped_packets > 500
        assert paced.total_timeouts > 0
        assert max(paced.inherited_cwnd) > 200  # window untouched
        assert trim.dropped_packets == 0

    def test_pacing_timer_is_cancellable_state(self):
        sim, _star, source, _sink = paced_pair()
        source.send_message(50)
        sim.run(until=1.0)
        assert source._pace_event is None or source._pace_event.cancelled
