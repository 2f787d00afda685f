"""Tests for the packet logger and its train extraction."""

from repro.metrics.tracing import PacketLogger
from repro.net.packet import ACK_BYTES
from tests.helpers import make_pair


class TestPacketLogger:
    def test_records_deliveries(self):
        sim, star, source, _sink = make_pair()
        logger = PacketLogger(star.bottleneck)
        source.send_message(25)
        sim.run(until=0.1)
        assert len(logger) == 25
        assert logger.total_bytes() == 25 * 1460
        times = logger.times
        assert times == sorted(times)

    def test_flow_filter(self):
        sim, star, source, _sink = make_pair()
        logger = PacketLogger(star.bottleneck, flow_id=999)
        source.send_message(10)
        sim.run(until=0.1)
        assert len(logger) == 0

    def test_logs_acks_on_the_reverse_path(self):
        sim, star, source, _sink = make_pair()
        # ACKs flow on the reverse path; the logger keeps every packet.
        reverse = star.network.link_between(star.frontend, star.switch)
        logger = PacketLogger(reverse)
        source.send_message(10)
        sim.run(until=0.1)
        assert len(logger) == 10  # the ACKs
        assert logger.total_bytes() == 10 * ACK_BYTES

    def test_chains_existing_hook(self):
        """A logger joins whatever already observes the link."""
        sim, star, source, _sink = make_pair()
        seen = []
        star.bottleneck.add_observer(lambda pkt: seen.append(pkt.seq))
        logger = PacketLogger(star.bottleneck)
        source.send_message(5)
        sim.run(until=0.1)
        assert len(seen) == 5
        assert len(logger) == 5

    def test_detach_restores_hook(self):
        sim, star, source, _sink = make_pair()
        logger = PacketLogger(star.bottleneck)
        logger.detach()
        source.send_message(5)
        sim.run(until=0.1)
        assert len(logger) == 0

    def test_trains_from_live_traffic(self):
        """An ON/OFF sender's trains are recoverable from the wire."""
        sim, star, source, _sink = make_pair()
        logger = PacketLogger(star.bottleneck)
        for i in range(4):
            sim.schedule_at(0.01 * (i + 1), lambda: source.send_message(10))
        sim.run(until=0.2)
        trains = logger.trains(gap=1e-3)
        assert len(trains) == 4
        assert all(t.n_packets == 10 for t in trains)

    def test_retransmission_flag_recorded(self):
        from tests.helpers import drop_seqs_once, install_loss

        sim, star, source, _sink = make_pair()
        logger = PacketLogger(star.bottleneck)
        install_loss(star.bottleneck, drop_seqs_once({3}))
        source.send_message(20)
        sim.run(until=1.0)
        retx = [r for r in logger.records if r.is_retransmission]
        assert any(r.seq == 3 for r in retx)


class TestObserverChain:
    """Loggers are link observers: detach order must not matter.

    The save-and-restore hook chaining this replaced silently dropped
    the *second* logger when the *first* detached (non-LIFO order): its
    restore wrote back a stale hook that no longer pointed at anyone.
    """

    def test_non_lifo_detach_keeps_later_logger_alive(self):
        sim, star, source, _sink = make_pair()
        first = PacketLogger(star.bottleneck)
        second = PacketLogger(star.bottleneck)
        first.detach()  # non-LIFO: the earlier attachment leaves first
        source.send_message(10)
        sim.run(until=0.1)
        assert len(first) == 0
        assert len(second) == 10

    def test_lifo_detach_still_works(self):
        sim, star, source, _sink = make_pair()
        first = PacketLogger(star.bottleneck)
        second = PacketLogger(star.bottleneck)
        second.detach()
        source.send_message(10)
        sim.run(until=0.1)
        assert len(first) == 10
        assert len(second) == 0

    def test_detach_is_idempotent(self):
        sim, star, source, _sink = make_pair()
        first = PacketLogger(star.bottleneck)
        second = PacketLogger(star.bottleneck)
        first.detach()
        first.detach()  # second call must not touch the remaining observer
        source.send_message(5)
        sim.run(until=0.1)
        assert len(first) == 0
        assert len(second) == 5

    def test_three_loggers_any_detach_order(self):
        sim, star, source, _sink = make_pair()
        loggers = [PacketLogger(star.bottleneck) for _ in range(3)]
        loggers[1].detach()
        loggers[0].detach()
        source.send_message(7)
        sim.run(until=0.1)
        assert [len(lg) for lg in loggers] == [0, 0, 7]
