"""Additional unit coverage for the Vegas baseline's internals."""

import pytest

from repro.tcp.factory import default_config
from tests.helpers import FAST, make_pair


class TestVegasInternals:
    def test_slow_start_doubles_every_other_epoch(self):
        _sim, _star, source, _sink = make_pair(
            "vegas", config=default_config("vegas", **FAST)
        )
        source.base_rtt = 1e-3
        source.cwnd = 4.0
        source.ssthresh = 1e12
        source._epoch_end = 0
        source.t_seqno = 10

        class Ack:
            ack = 5

        source._epoch_min_rtt = 1e-3  # diff 0: stay in slow start
        assert source._ss_grow_this_epoch
        source._increase_window(1, Ack())
        assert source.cwnd == pytest.approx(8.0)
        # Next epoch is the hold phase.
        source._epoch_min_rtt = 1e-3
        Ack.ack = 11
        source._increase_window(1, Ack())
        assert source.cwnd == pytest.approx(8.0)

    def test_gamma_exit_from_slow_start(self):
        _sim, _star, source, _sink = make_pair(
            "vegas", config=default_config("vegas", **FAST)
        )
        source.base_rtt = 1e-3
        source.cwnd = 16.0
        source.ssthresh = 1e12
        source._epoch_end = 0
        source.t_seqno = 10
        source._epoch_min_rtt = 1.2e-3  # diff = 16·(1−1/1.2) ≈ 2.7 > GAMMA

        class Ack:
            ack = 5

        source._increase_window(1, Ack())
        assert source.ssthresh == pytest.approx(16.0)
        assert source.cwnd == pytest.approx(15.0)

    def test_ca_holds_inside_band(self):
        _sim, _star, source, _sink = make_pair(
            "vegas", config=default_config("vegas", **FAST)
        )
        source.base_rtt = 1e-3
        source.cwnd = 10.0
        source.ssthresh = 5.0  # congestion avoidance
        source._epoch_end = 0
        source.t_seqno = 10
        # diff = 10·(1−1/1.25) = 2: between ALPHA=1 and BETA=3 → hold.
        source._epoch_min_rtt = 1.25e-3

        class Ack:
            ack = 5

        source._increase_window(1, Ack())
        assert source.cwnd == pytest.approx(10.0)
