"""End-to-end RED: a TCP flow through a RED bottleneck.

RED's early random drops should keep the standing queue well below the
physical buffer (unlike drop-tail's ceiling-riding saw-tooth) while the
flow still completes its transfer.
"""

from repro.net.queues import RedQueue
from repro.tcp.base import TcpConfig
from tests.helpers import FAST, make_pair


def install_red(link, **kwargs):
    defaults = dict(
        capacity_pkts=link.queue.capacity_pkts,
        min_threshold=10,
        max_threshold=30,
        max_probability=0.1,
        mean_tx_time=1460 * 8 / link.bandwidth_bps,
        seed=3,
    )
    defaults.update(kwargs)
    link.queue = RedQueue(link.sim, **defaults)
    return link.queue


class TestRedEndToEnd:
    def test_transfer_completes_through_red(self):
        sim, star, source, sink = make_pair(
            "reno", config=TcpConfig(**FAST), frontend_bandwidth=200e6
        )
        install_red(star.bottleneck)
        source.send_message(2000)
        sim.run(until=2.0)
        assert sink.next_expected == 2000

    def test_red_keeps_queue_below_droptail(self):
        def run(use_red):
            sim, star, source, _sink = make_pair(
                "reno", config=TcpConfig(**FAST), frontend_bandwidth=200e6
            )
            if use_red:
                install_red(star.bottleneck)
            source.send_message(50000)
            samples = []

            def probe():
                samples.append(star.bottleneck.backlog_pkts)
                if sim.now < 0.5:
                    sim.schedule(1e-3, probe)

            sim.schedule_at(0.1, probe)
            sim.run(until=0.5)
            return sum(samples) / len(samples)

        red_queue = run(use_red=True)
        droptail_queue = run(use_red=False)
        assert red_queue < droptail_queue * 0.8

    def test_red_produces_early_drops(self):
        # Warm-started sender: RED's slow EWMA cannot catch a slow-start
        # spike (true of real RED), so steady-state growth is the test.
        config = TcpConfig(initial_ssthresh=16, **FAST)
        sim, star, source, _sink = make_pair(
            "reno", config=config, frontend_bandwidth=200e6
        )
        queue = install_red(star.bottleneck)
        source.send_message(20000)
        sim.run(until=0.5)
        assert queue.stats.dropped > 0
        # Early drops: the queue never had to reach the physical limit.
        assert queue.stats.peak_length < queue.capacity_pkts

    def test_red_ecn_mode_with_dctcp(self):
        from repro.tcp.factory import default_config

        sim, star, source, sink = make_pair(
            "dctcp",
            config=default_config("dctcp", initial_ssthresh=16, **FAST),
            frontend_bandwidth=200e6,
        )
        queue = install_red(star.bottleneck, ecn_mode=True)
        source.send_message(5000)
        sim.run(until=2.0)
        assert sink.next_expected == 5000
        assert queue.stats.marked > 0
        assert source.stats.timeouts == 0
