"""Keep-alive pool lifecycle: conservation, reuse order, churn."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.http.openloop import ConnectionPool, PoolStats
from repro.obs import Telemetry, TraceSpec
from repro.sim.kernel import Simulator


def make_pool(sim, **kwargs):
    kwargs.setdefault("idle_timeout_s", 0.5)
    opened = []
    closed = []

    def factory(conn_id):
        opened.append(conn_id)
        return f"conn-{conn_id}"

    pool = ConnectionPool(sim, factory=factory, on_close=closed.append, **kwargs)
    return pool, opened, closed


class TestLifecycle:
    def test_lease_opens_then_reuses_lifo(self):
        sim = Simulator()
        pool, opened, _ = make_pool(sim)
        a, _ = pool.lease()
        b, _ = pool.lease()
        assert (a, b) == (0, 1)
        pool.release(a)
        pool.release(b)
        # LIFO: the most recently released (b) is leased first.
        assert pool.lease()[0] == b
        assert pool.lease()[0] == a
        assert opened == [0, 1]
        assert pool.stats.reused == 2

    def test_idle_timeout_closes_connection(self):
        sim = Simulator()
        pool, _, closed = make_pool(sim, idle_timeout_s=0.1)
        conn_id, _ = pool.lease()
        pool.release(conn_id)
        sim.run(until=0.2)
        assert closed == ["conn-0"]
        assert pool.stats.closed_idle == 1
        assert pool.n_idle == 0
        pool.check_conservation()

    def test_reuse_rearms_idle_timer(self):
        sim = Simulator()
        pool, _, closed = make_pool(sim, idle_timeout_s=0.1)
        conn_id, _ = pool.lease()
        pool.release(conn_id)
        sim.run(until=0.05)
        again, _ = pool.lease()  # cancel pending expiry
        assert again == conn_id
        sim.run(until=0.3)
        assert closed == []  # still leased, timer cancelled
        pool.release(again)
        sim.run(until=0.5)
        assert closed == ["conn-0"]

    def test_max_reuse_retires(self):
        sim = Simulator()
        pool, opened, closed = make_pool(sim, max_reuse=2)
        for _ in range(4):
            conn_id, _ = pool.lease()
            pool.release(conn_id)
        assert pool.stats.closed_retired == 2
        assert len(opened) == 2
        assert len(closed) == 2
        pool.check_conservation()

    def test_discard_closes_without_pooling(self):
        sim = Simulator()
        pool, _, closed = make_pool(sim)
        conn_id, _ = pool.lease()
        pool.discard(conn_id)
        assert closed == ["conn-0"]
        assert pool.n_idle == 0
        pool.check_conservation()

    def test_release_unknown_id_rejected(self):
        sim = Simulator()
        pool, _, _ = make_pool(sim)
        with pytest.raises(ValueError):
            pool.release(7)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ConnectionPool(sim, factory=lambda i: i, idle_timeout_s=0.0)
        with pytest.raises(ValueError):
            ConnectionPool(sim, factory=lambda i: i, max_reuse=0)

    def test_reconnect_storm_after_idle_drain(self):
        """A burst over a drained pool opens cold connections en masse —
        the reconnect-storm behavior the paper's premise turns on."""
        sim = Simulator()
        pool, opened, _ = make_pool(sim, idle_timeout_s=0.05)
        first = [pool.lease()[0] for _ in range(8)]
        for conn_id in first:
            pool.release(conn_id)
        sim.run(until=0.2)  # idle horizon passes: pool fully drains
        assert pool.n_idle == 0
        for _ in range(8):
            pool.lease()
        assert len(opened) == 16  # all cold opens, no reuse possible
        assert pool.stats.reused == 0
        pool.check_conservation()


class TestConservationProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(st.integers(min_value=0, max_value=3), max_size=60),
        idle_timeout=st.floats(min_value=0.01, max_value=0.3),
        max_reuse=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    )
    def test_property_conservation_under_random_ops(
        self, ops, idle_timeout, max_reuse
    ):
        """opened == closed_idle + closed_retired + leased + idle holds
        under any interleaving of lease/release/discard/time."""
        sim = Simulator()
        pool, opened, closed = make_pool(
            sim, idle_timeout_s=idle_timeout, max_reuse=max_reuse
        )
        leased: list[int] = []
        for op in ops:
            if op == 0:
                leased.append(pool.lease()[0])
            elif op == 1 and leased:
                pool.release(leased.pop())
            elif op == 2 and leased:
                pool.discard(leased.pop(0))
            elif op == 3:
                sim.run(until=sim.now + idle_timeout / 2)
            pool.check_conservation()
        sim.run(until=sim.now + 2 * idle_timeout)
        pool.check_conservation()
        # After the idle horizon with no further leases, nothing idles.
        assert pool.n_idle == 0
        assert pool.stats.opened == len(opened)
        assert pool.stats.closed == len(closed)
        assert pool.stats.opened == pool.stats.closed + pool.n_leased


class TestPoolStats:
    def test_merged_sums_counters(self):
        a = PoolStats(opened=2, closed_idle=1, reused=3, leases=5)
        b = PoolStats(opened=1, closed_retired=1, reused=2, leases=3)
        total = a.merged(b)
        assert total.opened == 3
        assert total.closed == 2
        assert total.reused == 5
        assert total.leases == 8
        assert total.reuse_fraction == pytest.approx(5 / 8)

    def test_reuse_fraction_zero_when_unused(self):
        assert PoolStats().reuse_fraction == 0.0


class TestPoolTelemetry:
    def test_lifecycle_emits_pool_channel(self):
        telemetry = Telemetry(TraceSpec.parse("pool"))
        sim = Simulator(telemetry=telemetry)
        pool, _, _ = make_pool(sim, idle_timeout_s=0.1, max_reuse=2)
        conn_id, _ = pool.lease()
        pool.release(conn_id)
        again, _ = pool.lease()
        pool.release(again)  # retired at max_reuse
        other, _ = pool.lease()
        pool.release(other)
        sim.run(until=0.3)  # idle horizon expires the second connection
        events = [(r.event, r.conn) for r in telemetry.records()]
        assert events == [
            ("open", 0),
            ("checkin", 0),
            ("reuse", 0),
            ("close_retired", 0),
            ("open", 1),
            ("checkin", 1),
            ("close_idle", 1),
        ]
        for record in telemetry.records():
            assert record.leased is not None and record.idle is not None

    def test_occupancy_reflects_post_transition_state(self):
        telemetry = Telemetry(TraceSpec.parse("pool"))
        sim = Simulator(telemetry=telemetry)
        pool, _, _ = make_pool(sim)
        pool.lease()
        record = telemetry.records()[-1]
        assert (record.leased, record.idle) == (1, 0)
