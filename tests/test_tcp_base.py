"""Unit and behavioural tests for the base TCP sender and sink."""

import pytest

from repro.net.packet import MSS_BYTES
from repro.sim.kernel import Simulator
from repro.tcp.base import INITIAL_CWND, MIN_CWND, TcpConfig
from repro.tcp.reno import RenoSource
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair


class TestDelivery:
    def test_single_message_delivers_and_completes(self):
        sim, _star, source, sink = make_pair()
        msg = source.send_message(50)
        sim.run(until=1.0)
        assert source.all_acked
        assert sink.next_expected == 50
        assert msg.finish_time is not None
        assert msg.completion_time > 0

    def test_completion_time_close_to_serialization(self):
        sim, _star, source, _sink = make_pair()
        msg = source.send_message(200)
        sim.run(until=1.0)
        line_time = 200 * MSS_BYTES * 8 / 1e9
        # Slow start ramps, so completion is more than line time but
        # within a small multiple of it plus a few RTTs.
        assert line_time < msg.completion_time < 5 * line_time + 0.01

    def test_send_bytes_rounds_up_segments(self):
        _sim, _star, source, _sink = make_pair()
        msg = source.send_bytes(MSS_BYTES + 1)
        assert msg.n_segments == 2

    def test_send_bytes_minimum_one_segment(self):
        _sim, _star, source, _sink = make_pair()
        assert source.send_bytes(1).n_segments == 1

    def test_multiple_messages_complete_in_order(self):
        sim, _star, source, _sink = make_pair()
        order = []
        for i in range(3):
            source.send_message(10, on_complete=lambda m, i=i: order.append(i))
        sim.run(until=1.0)
        assert order == [0, 1, 2]

    def test_message_validation(self):
        _sim, _star, source, _sink = make_pair()
        with pytest.raises(ValueError):
            source.send_message(0)
        with pytest.raises(ValueError):
            source.send_bytes(0)

    def test_on_complete_callback_receives_message(self):
        sim, _star, source, _sink = make_pair()
        seen = []
        msg = source.send_message(5, on_complete=seen.append)
        sim.run(until=1.0)
        assert seen == [msg]


class TestWindowGrowth:
    def test_slow_start_increments_per_ack(self):
        sim, _star, source, _sink = make_pair()
        source.send_message(20)
        sim.run(until=1.0)
        # 20 ACKs in slow start from initial 2.
        assert source.cwnd == pytest.approx(2.0 + 20)

    def test_congestion_avoidance_additive(self):
        config = TcpConfig(initial_ssthresh=2.0, **FAST)
        sim, _star, source, _sink = make_pair(config=config)
        source.send_message(10)
        sim.run(until=1.0)
        # Every ACK adds 1/cwnd; growth far below slow start.
        assert 2.0 < source.cwnd < 6.0

    def test_ack_counted_growth_when_app_limited(self):
        """The window inflates on every ACK even for tiny messages —
        the legacy behaviour behind the paper's inherited-window trap."""
        sim, _star, source, _sink = make_pair()
        for _ in range(30):
            source.send_message(2)
        sim.run(until=1.0)
        assert source.cwnd >= 60  # grew despite never being window-limited

    def test_max_cwnd_respected(self):
        config = TcpConfig(max_cwnd=4, **FAST)
        sim, _star, source, _sink = make_pair(config=config)
        source.send_message(100)
        sim.run(until=0.0201)
        assert source.flight <= 4

    def test_flight_never_negative(self):
        sim, _star, source, _sink = make_pair()
        source.send_message(30)
        sim.run(until=1.0)
        assert source.flight == 0


class TestFastRetransmit:
    def test_three_dupacks_trigger_retransmit(self):
        sim, star, source, sink = make_pair()
        install_loss(star.bottleneck, drop_seqs_once({5}))
        source.send_message(30)
        sim.run(until=1.0)
        assert source.stats.fast_retransmits == 1
        assert source.stats.timeouts == 0
        assert sink.next_expected == 30

    def test_window_halved_after_recovery(self):
        sim, star, source, _sink = make_pair()
        install_loss(star.bottleneck, drop_seqs_once({10}))
        source.send_message(40)
        sim.run(until=1.0)
        assert source.ssthresh < 40
        assert source.cwnd >= MIN_CWND

    def test_recovery_exits_on_new_ack(self):
        sim, star, source, _sink = make_pair()
        install_loss(star.bottleneck, drop_seqs_once({5}))
        source.send_message(30)
        sim.run(until=1.0)
        assert not source.in_recovery

    def test_two_dupacks_do_not_retransmit(self):
        # Drop the 3rd-from-last segment: only 2 dupacks can arrive.
        sim, star, source, sink = make_pair()
        install_loss(star.bottleneck, drop_seqs_once({27}))
        source.send_message(30)
        sim.run(until=0.009)  # before the 10 ms RTO
        assert source.stats.fast_retransmits == 0
        sim.run(until=1.0)  # RTO eventually repairs it
        assert sink.next_expected == 30
        assert source.stats.timeouts >= 1


class TestTimeout:
    def test_whole_window_loss_forces_rto(self):
        sim, star, source, sink = make_pair()
        install_loss(star.bottleneck, drop_seqs_once({0, 1}))
        source.send_message(2)
        sim.run(until=1.0)
        assert source.stats.timeouts >= 1
        assert sink.next_expected == 2

    def test_timeout_resets_window_to_configured_value(self):
        sim, star, source, _sink = make_pair()
        install_loss(star.bottleneck, drop_seqs_once({0, 1}))
        source.send_message(2)
        # run just past the first RTO
        sim.run(until=0.0101)
        assert source.cwnd == INITIAL_CWND

    def test_exponential_backoff_on_repeated_timeouts(self):
        sim, star, source, _sink = make_pair()
        # Drop seq 0 on its first three transmissions.
        attempts = {"n": 0}

        def should_drop(pkt):
            if pkt.is_data and pkt.seq == 0 and attempts["n"] < 3:
                attempts["n"] += 1
                return True
            return False

        install_loss(star.bottleneck, should_drop)
        source.send_message(1)
        sim.run(until=1.0)
        # Timeouts at ~10ms, +20ms, +40ms.
        assert source.stats.timeouts == 3
        assert source.all_acked

    def test_timer_idle_when_nothing_outstanding(self):
        sim, _star, source, _sink = make_pair()
        source.send_message(5)
        sim.run(until=1.0)
        assert source._rtx_event is None

    def test_go_back_n_after_timeout(self):
        sim, star, source, sink = make_pair()
        # Lose a mid-window run long enough that dupacks cannot reach 3.
        install_loss(star.bottleneck, drop_seqs_once({3, 4}))
        source.send_message(5)
        sim.run(until=1.0)
        assert sink.next_expected == 5
        assert source.all_acked

    def test_timer_restart_queues_per_rto_not_per_ack(self, monkeypatch):
        """RFC 6298 5.3 restarts the timer on every new ACK; the kernel
        re-keys the armed event, so an RTO entry is queued about once
        per RTO of simulated time, not once per ACK."""
        queued = []
        push = Simulator._push

        def counting_push(sim, entry):
            if getattr(entry[2], "__name__", None) == "_on_rtx_timeout":
                queued.append(entry[0])
            push(sim, entry)

        monkeypatch.setattr(Simulator, "_push", counting_push)
        sim, _star, source, _sink = make_pair(buffer_pkts=4000)  # no loss
        msg = source.send_message(2000)
        sim.run(until=1.0)
        assert msg.finish_time is not None and source.timeouts == 0
        assert source.stats.acks_received >= 1000
        assert 1 <= len(queued) <= msg.finish_time / FAST["min_rto"] + 2


def sample_log():
    """A Reno sender whose RTT-sample hook logs the segment sampled."""
    samples = []

    class SampleLog(RenoSource):
        def _on_rtt_sample(self, rtt, pkt):
            samples.append(pkt.for_seq)

    return SampleLog, samples


class TestKarn:
    def test_retransmitted_segment_gives_no_rtt_sample(self):
        source_cls, samples = sample_log()
        sim, star, source, _sink = make_pair(source_cls)
        install_loss(star.bottleneck, drop_seqs_once({0, 1}))
        source.send_message(2)
        sim.run(until=1.0)
        # Retransmissions of 0 and 1 are excluded by Karn's rule.
        assert 0 not in samples and 1 not in samples

    def test_clean_transfer_samples_every_segment(self):
        source_cls, samples = sample_log()
        sim, _star, source, _sink = make_pair(source_cls)
        source.send_message(10)
        sim.run(until=1.0)
        assert sorted(samples) == list(range(10))


class TestNewReno:
    def test_partial_ack_retransmits_next_hole(self):
        config = TcpConfig(recovery="newreno", **FAST)
        sim, star, source, sink = make_pair(config=config)
        install_loss(star.bottleneck, drop_seqs_once({5, 10}))
        source.send_message(30)
        sim.run(until=0.009)  # repaired within one RTO?
        assert sink.next_expected == 30
        assert source.stats.timeouts == 0

    def test_plain_reno_needs_rto_for_double_loss(self):
        sim, star, source, sink = make_pair()
        install_loss(star.bottleneck, drop_seqs_once({5, 10}))
        source.send_message(30)
        sim.run(until=1.0)
        assert sink.next_expected == 30
        assert source.stats.timeouts >= 1

    def test_invalid_recovery_name_rejected(self):
        with pytest.raises(ValueError):
            TcpConfig(recovery="vegas")


class TestStop:
    def test_stop_truncates_stream(self):
        sim, _star, source, _sink = make_pair()
        source.send_message(100000)
        sim.run(until=0.001)
        source.stop()
        limit = source.app_limit
        sim.run(until=1.0)
        assert source.app_limit == limit
        assert source.t_seqno <= limit
        assert source.flight == 0

    def test_stop_drops_unreachable_message_completions(self):
        sim, _star, source, _sink = make_pair()
        msg = source.send_message(100000)
        sim.run(until=0.001)
        source.stop()
        sim.run(until=1.0)
        assert msg.finish_time is None


class TestSink:
    def test_immediate_mode_acks_every_segment(self):
        sim, _star, source, sink = make_pair(config=TcpConfig(**FAST))
        source.send_message(100)
        sim.run(until=1.0)
        assert sink.acks_sent >= 100

    def test_out_of_order_buffering(self):
        sim, star, source, sink = make_pair()
        install_loss(star.bottleneck, drop_seqs_once({2}))
        source.send_message(10)
        sim.run(until=1.0)
        assert sink.next_expected == 10
        assert sink.delivered_segments == 10

    def test_duplicate_detection(self):
        sim, star, source, sink = make_pair()
        # Force an RTO-based go-back-N: everything after the hole is
        # retransmitted, arriving as duplicates.
        install_loss(star.bottleneck, drop_seqs_once({0, 1}))
        source.send_message(2)
        sim.run(until=1.0)
        assert sink.delivered_segments == 2

    def test_acks_are_cumulative(self):
        sim, star, source, sink = make_pair()
        install_loss(star.bottleneck, drop_seqs_once({1}))
        source.send_message(5)
        sim.run(until=1.0)
        # Final cumulative state is complete despite the hole.
        assert source.highest_ack == 4

    def test_delivered_bytes(self):
        sim, _star, source, sink = make_pair()
        source.send_message(3)
        sim.run(until=1.0)
        assert sink.delivered_bytes == 3 * MSS_BYTES

    def test_sink_rejects_acks(self):
        from repro.net.packet import ACK, Packet

        _sim, _star, _source, sink = make_pair()
        with pytest.raises(RuntimeError):
            sink.receive_packet(Packet(flow_id=1, src=0, dst=1, kind=ACK, ack=0))

    def test_source_rejects_data(self):
        from repro.net.packet import DATA, Packet

        _sim, _star, source, _sink = make_pair()
        with pytest.raises(RuntimeError):
            source.receive_packet(Packet(flow_id=1, src=0, dst=1, kind=DATA, seq=0))


class TestConfig:
    def test_invalid_initial_cwnd(self):
        # The initial window is a constant, not a knob: the field is gone.
        with pytest.raises(TypeError):
            TcpConfig(initial_cwnd=0.5)

    def test_defaults_match_paper(self):
        config = TcpConfig()
        assert MSS_BYTES == 1460
        assert MIN_CWND == 2.0
        assert config.min_rto == 0.2
