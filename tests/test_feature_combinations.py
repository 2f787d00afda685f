"""Feature-combination tests: the extensions compose.

Each optional sender mechanism (SACK, pacing) is orthogonal machinery
in the base sender; these tests pin the interesting pairings, especially
with TCP-TRIM's probing on top.
"""

from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig, TcpSink
from repro.tcp.factory import source_class
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair

CAPACITY = 1e9 / (8 * 1460)


class TestTrimWithSack:
    def test_probe_and_sack_coexist(self):
        config = TcpConfig(sack=True, **FAST)
        sim, star, source, sink = make_pair(
            "trim", config=config, capacity_pps=CAPACITY
        )
        source.send_message(30)
        sim.run(until=0.02)
        install_loss(star.bottleneck, drop_seqs_once({45, 48, 51, 54}))
        sim.schedule_at(0.04, lambda: source.send_message(90))
        sim.run(until=1.0)
        assert sink.next_expected == 120
        assert source.probes_completed == 1
        assert source.stats.timeouts == 0  # SACK repaired the holes

    def test_probe_segments_can_be_sacked(self):
        """Losing the segment before the probes: the probe data lands
        out of order, is SACKed, and recovery still completes."""
        config = TcpConfig(sack=True, **FAST)
        sim, star, source, sink = make_pair(
            "trim", config=config, capacity_pps=CAPACITY
        )
        source.send_message(20)
        sim.run(until=0.02)
        install_loss(star.bottleneck, drop_seqs_once({20}))
        sim.schedule_at(0.04, lambda: source.send_message(30))
        sim.run(until=1.0)
        assert sink.next_expected == 50


class TestTrimWithPacing:
    def test_paced_trim_stream(self):
        config = TcpConfig(pacing=True, **FAST)
        sim, _star, source, sink = make_pair(
            "trim", config=config, capacity_pps=CAPACITY
        )
        total = 0
        for i in range(5):
            total += 30
            sim.schedule_at(0.01 * (i + 1), lambda: source.send_message(30))
        sim.run(until=1.0)
        assert sink.next_expected == total
        assert source.probes_completed >= 3
        assert source.stats.timeouts == 0


class TestEverythingOn:
    def test_kitchen_sink_configuration(self):
        """SACK + pacing + TRIM, with losses: the stream still delivers
        completely and in order."""
        sim = Simulator()
        star = build_star(sim, 1)
        source = source_class("trim")(
            sim, star.servers[0], 1, star.frontend.node_id,
            config=TcpConfig(sack=True, pacing=True, **FAST),
            capacity_pps=CAPACITY,
        )
        sink = TcpSink(sim, star.frontend, flow_id=1)
        install_loss(star.bottleneck, drop_seqs_once({25, 60, 61}))
        total = 0
        for i in range(4):
            total += 40
            sim.schedule_at(0.01 * (i + 1), lambda: source.send_message(40))
        sim.run(until=3.0)
        assert sink.next_expected == total
        assert source.all_acked
