"""Unit tests for the RED queue."""

import pytest

from repro.net.packet import DATA, Packet
from repro.net.queues import RedQueue
from repro.sim.kernel import Simulator


def pkt(ecn=False, seq=0):
    return Packet(flow_id=1, src=0, dst=1, kind=DATA, seq=seq, ecn_capable=ecn)


def make_red(**overrides):
    defaults = dict(
        capacity_pkts=100, min_threshold=5, max_threshold=15,
        max_probability=0.1, seed=1,
    )
    defaults.update(overrides)
    return RedQueue(Simulator(), **defaults)


class TestValidation:
    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            make_red(min_threshold=15, max_threshold=5)
        with pytest.raises(ValueError):
            make_red(min_threshold=0, max_threshold=5)
        with pytest.raises(ValueError):
            make_red(max_threshold=200)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            make_red(max_probability=0.0)
        with pytest.raises(ValueError):
            make_red(max_probability=1.5)

    def test_tx_time_positive(self):
        with pytest.raises(ValueError):
            make_red(mean_tx_time=0.0)


class TestBehaviour:
    def test_no_drops_below_min_threshold(self):
        q = make_red()
        for i in range(5):
            assert q.enqueue(pkt(seq=i))
        assert q.stats.dropped == 0

    def test_average_tracks_queue_slowly(self):
        q = make_red()
        for i in range(50):
            q.enqueue(pkt(seq=i))
        # EWMA with w=0.002 trails far behind the instantaneous length.
        assert 0 < q.avg < len(q)

    def test_sustained_overload_triggers_early_drops(self):
        q = make_red(capacity_pkts=1000, min_threshold=5, max_threshold=15)
        dropped_before_full = 0
        for i in range(20000):
            q.sim.run(until=i * 1e-5)
            if not q.enqueue(pkt(seq=i)) and len(q) < q.capacity_pkts:
                dropped_before_full += 1
            if i % 3 == 0:
                q.dequeue()  # drain slower than arrivals
        assert dropped_before_full > 0  # RED acted before the tail

    def test_hard_drop_above_max_threshold(self):
        q = make_red(capacity_pkts=1000)
        q.avg = 20.0  # force the average over max_threshold
        assert not q.enqueue(pkt())

    def test_ecn_mode_marks_instead_of_dropping(self):
        q = make_red(ecn_mode=True, capacity_pkts=1000)
        q.avg = 20.0
        victim = pkt(ecn=True)
        assert q.enqueue(victim)
        assert victim.ecn_ce
        assert q.stats.marked == 1
        assert q.stats.dropped == 0

    def test_ecn_mode_still_drops_non_ect(self):
        q = make_red(ecn_mode=True, capacity_pkts=1000)
        q.avg = 20.0
        assert not q.enqueue(pkt(ecn=False))
        assert q.stats.dropped == 1

    def test_idle_period_decays_average(self):
        q = make_red(mean_tx_time=1e-5)
        for i in range(10):
            q.enqueue(pkt(seq=i))
        while q.dequeue() is not None:
            pass
        q.avg = 10.0
        q._idle_since = 0.0
        q.sim.run(until=1.0)  # a long idle period
        q.enqueue(pkt(seq=99))
        assert q.avg < 1.0

    def test_deterministic_given_seed(self):
        def run(seed):
            q = make_red(seed=seed, capacity_pkts=1000)
            outcomes = []
            for i in range(5000):
                q.sim.run(until=i * 1e-5)
                outcomes.append(q.enqueue(pkt(seq=i)))
                if i % 2 == 0:
                    q.dequeue()
            return outcomes

        assert run(7) == run(7)

    def test_capacity_tail_drop_still_applies(self):
        q = make_red(capacity_pkts=10, min_threshold=5, max_threshold=10)
        for i in range(10):
            q._fifo.append(pkt(seq=i))
        assert not q.enqueue(pkt(seq=99))
