"""Unit and behavioural tests for TCP-TRIM (Algorithms 1 and 2)."""

import pytest

from repro.core import kguide
from repro.core.trim import TrimSource
from repro.net.packet import Packet
from repro.tcp.base import MIN_CWND, TcpConfig
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair

CAPACITY_PPS = 1e9 / (8 * 1460)


def trim_pair(**kwargs):
    kwargs.setdefault("capacity_pps", CAPACITY_PPS)
    config = kwargs.pop("config", TcpConfig(**FAST))
    return make_pair("trim", config=config, **kwargs)


class TestGapDetection:
    def test_first_train_sends_without_probing(self):
        sim, _star, source, _sink = trim_pair()
        source.send_message(10)
        sim.run(until=0.01)
        assert source.probes_completed == 0
        assert not source.probing

    def test_idle_gap_triggers_probe(self):
        sim, _star, source, _sink = trim_pair()
        source.send_message(50)
        sim.run(until=0.01)
        # Idle far longer than smooth_RTT (~0.2 ms), then a new train.
        sim.schedule_at(0.02, lambda: source.send_message(50))
        sim.run(until=0.03)
        assert source.probes_completed == 1

    def test_no_probe_when_continuously_sending(self):
        sim, _star, source, _sink = trim_pair()
        source.send_message(2000)
        sim.run(until=0.1)
        assert source.probes_completed == 0

    def test_probe_packets_flagged(self):
        sim, star, source, _sink = trim_pair()
        probes = []
        original = star.bottleneck.send

        def spy(pkt):
            if pkt.is_data and pkt.is_probe:
                probes.append(pkt.seq)
            original(pkt)

        star.bottleneck.send = spy
        source.send_message(20)
        sim.run(until=0.01)
        sim.schedule_at(0.02, lambda: source.send_message(20))
        sim.run(until=0.05)
        assert len(probes) == 2  # exactly two probes for the second train

    def test_transmission_suspended_while_probing(self):
        sim, _star, source, _sink = trim_pair()
        source.send_message(20)
        sim.run(until=0.01)
        sim.schedule_at(0.02, lambda: source.send_message(100))
        # Immediately after the train starts, only the 2 probes are out.
        sim.run(until=0.02 + 20e-6)
        assert source.probing
        assert source.suspended
        assert source.t_seqno == 22  # 20 earlier + 2 probes

    def test_tiny_train_still_probes(self):
        sim, _star, source, sink = trim_pair()
        source.send_message(20)
        sim.run(until=0.01)
        sim.schedule_at(0.02, lambda: source.send_message(1))
        sim.run(until=0.05)
        assert source.probes_completed == 1
        assert sink.next_expected == 21

    def test_saved_window_restored_when_uncongested(self):
        sim, _star, source, _sink = trim_pair()
        source.send_message(100)
        sim.run(until=0.01)
        cwnd_before = source.cwnd
        sim.schedule_at(0.05, lambda: source.send_message(100))
        sim.run(until=0.06)
        # Network idle during the probe: probe_RTT ~= min_RTT, so the
        # inherited window survives nearly intact (Eq. 1 factor ~1).
        assert source.probes_completed == 1
        assert source.cwnd >= 0.8 * cwnd_before


class TestEquationOne:
    def test_window_tuned_by_probe_rtt(self):
        _sim, _star, source, _sink = trim_pair()
        source.min_rtt = 1e-3
        source._saved_cwnd = 100.0
        source.probing = True
        source._probe_rtts = [1.5e-3, 1.5e-3]  # 50% above min_RTT
        source._finish_probe(success=True)
        assert source.cwnd == pytest.approx(50.0)

    def test_negative_result_clamps_to_min(self):
        _sim, _star, source, _sink = trim_pair()
        source.min_rtt = 1e-3
        source._saved_cwnd = 100.0
        source.probing = True
        source._probe_rtts = [3e-3]  # factor 1-(2) = -1
        source._finish_probe(success=True)
        assert source.cwnd == MIN_CWND

    def test_never_exceeds_saved_window(self):
        _sim, _star, source, _sink = trim_pair()
        source.min_rtt = 1e-3
        source._saved_cwnd = 10.0
        source.probing = True
        source._probe_rtts = [1e-3]  # factor exactly 1
        source._finish_probe(success=True)
        assert source.cwnd == pytest.approx(10.0)

    def test_failed_probe_resets_to_min_window(self):
        _sim, _star, source, _sink = trim_pair()
        source.min_rtt = 1e-3
        source._saved_cwnd = 100.0
        source.probing = True
        source._probe_rtts = []
        source._finish_probe(success=False)
        assert source.cwnd == MIN_CWND


class TestProbeDeadline:
    def test_lost_probes_fall_back_to_min_window(self):
        sim, star, source, _sink = trim_pair()
        source.send_message(20)
        sim.run(until=0.01)
        # Drop the two probe segments of the next train.
        install_loss(star.bottleneck, drop_seqs_once({20, 21}))
        sim.schedule_at(0.02, lambda: source.send_message(30))
        sim.run(until=1.0)
        assert source.probes_timed_out >= 1
        assert source.all_acked  # loss is still repaired afterwards

    def test_deadline_resumes_transmission(self):
        sim, star, source, _sink = trim_pair()
        source.send_message(20)
        sim.run(until=0.01)
        install_loss(star.bottleneck, drop_seqs_once({20, 21}))
        sim.schedule_at(0.02, lambda: source.send_message(30))
        sim.run(until=0.025)
        assert not source.suspended


class TestConstructorValidation:
    @pytest.mark.parametrize("base_rtt", [0.0, -1e-3])
    def test_non_positive_base_rtt_rejected(self, base_rtt):
        # Eq. (1) divides by min_RTT, which base_rtt seeds; a falsy-but-
        # accepted 0.0 here was the original truthiness bug's entry door.
        with pytest.raises(ValueError, match="base_rtt"):
            trim_pair(base_rtt=base_rtt)

    @pytest.mark.parametrize("capacity_pps", [0.0, -100.0])
    def test_non_positive_capacity_rejected(self, capacity_pps):
        with pytest.raises(ValueError, match="capacity_pps"):
            trim_pair(capacity_pps=capacity_pps)

    def test_positive_values_accepted(self):
        _sim, _star, source, _sink = trim_pair(base_rtt=1e-6)
        assert source.min_rtt == 1e-6

    def test_unset_min_rtt_demotes_probe_success(self):
        # ``is not None``, not truthiness: only a genuinely absent
        # min_RTT falls back to the minimum window on a successful round.
        _sim, _star, source, _sink = trim_pair()
        source.min_rtt = None
        source._saved_cwnd = 100.0
        source.probing = True
        source._probe_rtts = [1e-3]
        source._finish_probe(success=True)
        assert source.probes_completed == 0
        assert source.cwnd == MIN_CWND

    def test_tiny_positive_min_rtt_still_inherits(self):
        _sim, _star, source, _sink = trim_pair()
        source.min_rtt = 1e-9
        source._saved_cwnd = 100.0
        source.probing = True
        source._probe_rtts = [1e-9]  # factor exactly 1
        source._finish_probe(success=True)
        assert source.probes_completed == 1
        assert source.cwnd == pytest.approx(100.0)


def probe_ack(source, seq, rtt):
    """A hand-crafted ACK echoing probe segment ``seq`` with ``rtt``."""
    pkt = Packet(source.flow_id, 0, 1, "ack", ack=seq + 1)
    pkt.for_seq = seq
    pkt.ts_echo = source.sim.now - rtt
    pkt.echo_probe = True
    return pkt


def probing_pair():
    """A TRIM source suspended mid-probe with both probe packets lost.

    Dropping the probes on the wire lets each test hand-deliver their
    ACKs (or none) in any interleaving via ``_on_ack_pre_increase``.
    """
    sim, star, source, sink = trim_pair()
    source.send_message(20)
    sim.run(until=0.01)
    install_loss(star.bottleneck, lambda pkt: pkt.is_probe)
    sim.schedule_at(0.02, lambda: source.send_message(10))
    sim.run(until=0.02 + 1e-5)
    assert source.probing and len(source._probe_seqs) == 2
    return sim, star, source, sink


class TestProbeDeadlineRearm:
    def test_first_probe_ack_rearms_the_deadline(self):
        sim, _star, source, _sink = probing_pair()
        first, _second = sorted(source._probe_seqs)
        old_time = source._probe_deadline.time
        assert source._on_ack_pre_increase(0, probe_ack(source, first, 2e-4))
        # Still probing — but on a deadline re-armed one smooth_RTT out,
        # so the trailing ACK is not condemned by the leading one's clock.
        assert source.probing
        fresh = source._probe_deadline
        assert not fresh.cancelled
        assert fresh.time == pytest.approx(sim.now + source.smooth_rtt.value)
        assert fresh.time > old_time
        sim.run(until=old_time)
        assert source.probing and source.probes_timed_out == 0
        sim.run(until=fresh.time)
        assert not source.probing and source.probes_timed_out == 1

    def test_both_acks_complete_and_apply_eq1(self):
        _sim, _star, source, _sink = probing_pair()
        saved = source._saved_cwnd
        min_rtt = source.min_rtt
        r1, r2 = 1.5 * min_rtt, 1.7 * min_rtt
        first, second = sorted(source._probe_seqs)
        source._on_ack_pre_increase(0, probe_ack(source, first, r1))
        source._on_ack_pre_increase(0, probe_ack(source, second, r2))
        assert not source.probing and not source.suspended
        assert source.probes_completed == 1
        assert source.probes_timed_out == 0
        factor = 1.0 - ((r1 + r2) / 2 - min_rtt) / min_rtt
        expected = min(saved, max(MIN_CWND, saved * factor))
        assert source.cwnd == pytest.approx(expected)
        assert source._probe_deadline is None

    def test_timeout_after_rearm_falls_back_to_min_window(self):
        sim, _star, source, _sink = probing_pair()
        first, _second = sorted(source._probe_seqs)
        source._on_ack_pre_increase(0, probe_ack(source, first, 2e-4))
        assert source.probing
        sim.run(until=source._probe_deadline.time + 1e-6)
        assert source.probes_timed_out == 1
        assert source.probes_completed == 0
        assert not source.probing and not source.suspended
        assert source.cwnd == MIN_CWND

    def test_karn_filtered_probe_ack_contributes_no_rtt(self):
        _sim, _star, source, _sink = probing_pair()
        first, _second = sorted(source._probe_seqs)
        retx_ack = probe_ack(source, first, 2e-4)
        retx_ack.echo_retx = True
        assert source._on_ack_pre_increase(0, retx_ack)
        assert source._probe_rtts == []  # sample rejected, seq consumed
        assert first not in source._probe_seqs

    def test_late_probe_ack_after_finish_is_harmless(self):
        sim, _star, source, _sink = probing_pair()
        seqs = sorted(source._probe_seqs)
        sim.run(until=source._probe_deadline.time + 1e-6)  # deadline fires
        assert not source.probing
        source._on_ack_pre_increase(0, probe_ack(source, seqs[0], 2e-4))
        assert not source.probing
        assert source.probes_timed_out == 1


class TestQueuingControl:
    def test_delay_decrease_applies_eq3(self):
        _sim, _star, source, _sink = trim_pair()
        source.k = 1e-3
        source.min_rtt = 0.5e-3
        source.cwnd = 40.0
        source.ssthresh = 1e12

        class FakeAck:
            echo_probe = False
            echo_retx = False
            for_seq = 0
            ack = 10
            ts_echo = 0.0
            ece = False

        source.sim.run(until=2e-3)  # RTT sample = 2 ms >= K
        suppressed = source._on_ack_pre_increase(1, FakeAck())
        ep = (2e-3 - 1e-3) / 2e-3
        assert suppressed
        assert source.cwnd == pytest.approx(40.0 * (1 - ep / 2))
        assert source.ssthresh == source.cwnd  # congestion ends slow start

    def test_no_decrease_below_k(self):
        sim, _star, source, _sink = trim_pair()
        source.send_message(5)
        sim.run(until=0.01)
        assert source.delay_decreases == 0

    def test_decrease_at_most_once_per_window(self):
        sim, star, source, _sink = trim_pair(frontend_bandwidth=100e6)
        source.send_message(3000)
        sim.run(until=0.05)
        # Many ACKs exceeded K, but decreases are bounded by windows:
        # far fewer decreases than ACKs received.
        assert 0 < source.delay_decreases < source.stats.acks_received / 5

    def test_queue_bounded_by_delay_control(self):
        sim, star, source, _sink = trim_pair(frontend_bandwidth=100e6)
        source.send_message(30000)
        peak = {"v": 0}

        def probe():
            peak["v"] = max(peak["v"], star.bottleneck.backlog_pkts)
            if sim.now < 0.4:
                sim.schedule(1e-4, probe)

        sim.schedule_at(0.05, probe)
        sim.run(until=0.4)
        assert peak["v"] < 40
        assert source.stats.timeouts == 0


class TestK:
    def test_static_k_with_capacity_and_base_rtt(self):
        _sim, _star, source, _sink = trim_pair(base_rtt=1e-3)
        expected = kguide.k_threshold(CAPACITY_PPS, 1e-3)
        assert source.k == pytest.approx(expected)

    def test_static_k_not_overwritten_by_samples(self):
        sim, _star, source, _sink = trim_pair(base_rtt=1e-3)
        k_before = source.k
        source.send_message(50)
        sim.run(until=0.01)
        assert source.k == k_before

    def test_dynamic_k_from_min_rtt(self):
        sim, _star, source, _sink = trim_pair()
        assert source.k is None
        source.send_message(10)
        sim.run(until=0.01)
        assert source.k == pytest.approx(
            kguide.k_threshold(CAPACITY_PPS, source.min_rtt)
        )

    def test_fallback_k_without_capacity(self):
        sim, _star, source, _sink = trim_pair(capacity_pps=None)
        source.send_message(10)
        sim.run(until=0.01)
        assert source.k == pytest.approx(
            TrimSource.FALLBACK_K_FACTOR * source.min_rtt
        )

    def test_base_rtt_seeds_min_rtt(self):
        _sim, _star, source, _sink = trim_pair(base_rtt=2e-3)
        assert source.min_rtt == 2e-3


class TestTimeoutInteraction:
    def test_rto_aborts_probe(self):
        sim, star, source, _sink = trim_pair()
        source.send_message(20)
        sim.run(until=0.01)
        install_loss(star.bottleneck, drop_seqs_once({20, 21}))
        sim.schedule_at(0.02, lambda: source.send_message(30))
        sim.run(until=1.0)
        assert not source.probing
        assert not source.suspended
        assert source.all_acked

    def test_losses_still_recovered_by_reno_machinery(self):
        sim, star, source, sink = trim_pair()
        install_loss(star.bottleneck, drop_seqs_once({5}))
        source.send_message(30)
        sim.run(until=1.0)
        assert sink.next_expected == 30
        assert source.stats.fast_retransmits == 1


class TestEndToEnd:
    def test_onoff_stream_without_timeouts(self):
        """An ON/OFF stream over a contended link completes cleanly."""
        sim, _star, source, sink = trim_pair(frontend_bandwidth=200e6)
        total = 0
        for i in range(10):
            size = 30 + 10 * (i % 3)
            total += size
            sim.schedule_at(0.01 + 0.01 * i, lambda n=size: source.send_message(n))
        sim.run(until=1.0)
        assert sink.next_expected == total
        assert source.stats.timeouts == 0

    def test_probe_counters_track_activity(self):
        sim, _star, source, _sink = trim_pair()
        source.send_message(20)
        sim.run(until=0.01)
        for i in range(3):
            sim.schedule_at(0.02 + 0.01 * i, lambda: source.send_message(20))
        sim.run(until=0.1)
        assert source.probes_completed == 3
        assert source.probes_timed_out == 0
