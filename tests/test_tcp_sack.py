"""Tests for SACK blocks (sink) and SACK-based recovery (sender)."""

import pytest

from repro.tcp.base import TcpConfig, TcpSink
from repro.tcp.reno import RenoSource
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair


def sack_pair(protocol="reno", **kwargs):
    config = kwargs.pop("config", TcpConfig(sack=True, **FAST))
    return make_pair(protocol, config=config, **kwargs)


class TestSinkBlocks:
    def test_no_blocks_when_in_order(self):
        sim, _star, source, sink = sack_pair()
        source.send_message(10)
        sim.run(until=0.01)
        assert sink._sack_blocks() == ()

    def test_single_block_over_a_hole(self):
        _sim, _star, _source, sink = sack_pair()
        sink._out_of_order = {5, 6, 7}
        assert sink._sack_blocks() == ((5, 8),)

    def test_multiple_runs_highest_first(self):
        _sim, _star, _source, sink = sack_pair()
        sink._out_of_order = {3, 4, 8, 12, 13}
        assert sink._sack_blocks() == ((12, 14), (8, 9), (3, 5))

    def test_at_most_three_blocks(self):
        _sim, _star, _source, sink = sack_pair()
        sink._out_of_order = {2, 5, 8, 11, 14}
        blocks = sink._sack_blocks()
        assert len(blocks) == 3
        assert blocks[0] == (14, 15)  # most recent runs win


class TestScoreboard:
    def test_blocks_fill_scoreboard(self):
        snapshots = []

        class Snapshot(RenoSource):
            def _fast_retransmit(self):
                snapshots.append(set(self._sacked))
                super()._fast_retransmit()

        sim, star, source, _sink = sack_pair(Snapshot)
        install_loss(star.bottleneck, drop_seqs_once({4}))
        source.send_message(12)
        sim.run(until=1.0)
        # At fast-retransmit time the scoreboard held data above the hole.
        assert snapshots and 5 in snapshots[0]
        assert all(4 not in s for s in snapshots)

    def test_scoreboard_pruned_by_cumulative_ack(self):
        sim, star, source, _sink = sack_pair()
        install_loss(star.bottleneck, drop_seqs_once({4}))
        source.send_message(12)
        sim.run(until=1.0)
        assert source._sacked == set()  # everything cumulatively acked


class TestSackRecovery:
    # Losses clustered inside one already-grown window: the case SACK
    # was designed for.  (Losses scattered across tiny separate windows
    # can still force an RTO — true of real SACK TCP as well.)
    WINDOW_LOSSES = frozenset({40, 43, 46, 49, 52, 55, 58, 61})

    def test_multi_hole_window_repaired_without_rto(self):
        sim, star, source, sink = sack_pair()
        install_loss(star.bottleneck, drop_seqs_once(self.WINDOW_LOSSES))
        source.send_message(120)
        sim.run(until=1.0)
        assert sink.next_expected == 120
        assert source.stats.timeouts == 0
        assert source.stats.retransmits == len(self.WINDOW_LOSSES)

    def test_plain_reno_same_losses_needs_rto(self):
        sim, star, source, sink = make_pair("reno", config=TcpConfig(**FAST))
        install_loss(star.bottleneck, drop_seqs_once(self.WINDOW_LOSSES))
        source.send_message(120)
        sim.run(until=1.0)
        assert sink.next_expected == 120
        assert source.stats.timeouts >= 1

    def test_sack_faster_than_newreno_for_many_holes(self):
        losses = self.WINDOW_LOSSES

        def run(config):
            sim, star, source, _sink = make_pair("reno", config=config)
            install_loss(star.bottleneck, drop_seqs_once(losses))
            msg = source.send_message(120)
            sim.run(until=2.0)
            assert msg.finish_time is not None
            return msg.completion_time, source.stats.timeouts

        sack_time, sack_rto = run(TcpConfig(sack=True, **FAST))
        newreno_time, _ = run(TcpConfig(recovery="newreno", **FAST))
        assert sack_rto == 0
        # SACK repairs a hole per dupACK; NewReno one hole per RTT.
        assert sack_time < newreno_time

    def test_no_redundant_retransmissions_of_sacked_data(self):
        sim, star, source, sink = sack_pair()
        install_loss(star.bottleneck, drop_seqs_once({5, 6}))
        source.send_message(30)
        sim.run(until=1.0)
        # Only the two lost segments go out again.
        assert source.stats.retransmits == 2
        assert sink.duplicate_segments == 0

    def test_cubic_with_sack_completes_under_heavy_loss(self):
        from repro.tcp.factory import default_config

        config = default_config("cubic", sack=True, **FAST)
        sim, star, source, sink = make_pair("cubic", config=config)
        install_loss(star.bottleneck, drop_seqs_once(set(range(10, 30, 3))))
        source.send_message(80)
        sim.run(until=1.0)
        assert sink.next_expected == 80
        assert source.stats.timeouts == 0

    def test_rto_clears_scoreboard(self):
        sim, star, source, _sink = sack_pair()
        install_loss(star.bottleneck, drop_seqs_once({0, 1}))
        source.send_message(2)
        sim.run(until=1.0)
        assert source._sacked == set()
        assert source.all_acked
