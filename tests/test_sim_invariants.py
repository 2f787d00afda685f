"""Runtime invariant checking: monitor wiring, violations, clean runs.

Covers the three check families (monotonic time, packet conservation,
flow sanity), the ``Kernel(check_invariants=True)`` / environment /
``--check-invariants`` enablement channels, and the headline guarantee:
a quick-preset point of every registered experiment runs clean with the
monitor on, while a deliberately broken queue is caught.
"""

import os

import pytest

from repro.experiments import registry
from repro.net.queues import DropTailQueue
from repro.sim import InvariantMonitor, InvariantViolation, Kernel, Simulator
from tests.helpers import FAST, make_pair


class TestEnablement:
    def test_kernel_is_simulator(self):
        assert Kernel is Simulator

    def test_off_by_default(self):
        assert Simulator().invariants is None

    def test_constructor_flag(self):
        sim = Kernel(check_invariants=True)
        assert isinstance(sim.invariants, InvariantMonitor)
        assert Kernel(check_invariants=False).invariants is None

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert Simulator().invariants is not None
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert Simulator().invariants is None

    def test_constructor_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert Simulator(check_invariants=False).invariants is None


class TestMonotonicTime:
    def test_backwards_event_time_raises(self):
        monitor = InvariantMonitor(Simulator())
        monitor.after_event(1.0)
        with pytest.raises(InvariantViolation, match="backwards"):
            monitor.after_event(0.5)

    def test_equal_timestamps_are_fine(self):
        monitor = InvariantMonitor(Simulator())
        monitor.after_event(1.0)
        monitor.after_event(1.0)

    def test_periodic_full_check(self):
        monitor = InvariantMonitor(Simulator(), check_every_events=2)
        for _ in range(5):
            monitor.after_event(0.0)
        assert monitor.events_seen == 5
        assert monitor.checks_run == 2

    def test_check_interval_validated(self):
        with pytest.raises(ValueError):
            InvariantMonitor(Simulator(), check_every_events=0)


class _LeakyQueue(DropTailQueue):
    """Admits packets, then silently evicts without counting — the bug
    class (lost accounting) the conservation check exists to catch."""

    def _admit(self, pkt):
        super()._admit(pkt)
        if len(self._fifo) > 2:
            self._fifo.pop(0)  # uncounted eviction


class TestPacketConservation:
    def test_honest_queue_balances(self):
        monitor = InvariantMonitor(Simulator())
        queue = DropTailQueue(capacity_pkts=2, name="ok")
        monitor.register_queue(queue)
        for _ in range(4):  # two admitted, two refused (counted drops)
            queue.enqueue(object())
        queue.dequeue()
        monitor.check_all()
        assert queue.stats.dropped == 2

    def test_broken_queue_is_caught(self):
        monitor = InvariantMonitor(Simulator())
        queue = _LeakyQueue(capacity_pkts=10, name="leaky")
        monitor.register_queue(queue)
        for _ in range(4):
            queue.enqueue(object())
        with pytest.raises(InvariantViolation, match="conservation"):
            monitor.check_all()

    def test_broken_queue_caught_in_simulation(self):
        """The kernel's periodic sweep sees the broken queue mid-run."""
        sim = Simulator(check_invariants=True)
        assert sim.invariants is not None
        sim.invariants.check_every_events = 1
        queue = _LeakyQueue(capacity_pkts=10, name="leaky")
        sim.invariants.register_queue(queue)
        for i in range(4):
            sim.schedule_at(0.1 * i, lambda: queue.enqueue(object()))
        with pytest.raises(InvariantViolation, match="conservation"):
            sim.run()


class TestFlowSanity:
    def _flow(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        sim, _star, source, _sink = make_pair("reno")
        assert sim.invariants is not None
        return sim, source

    def test_links_and_flows_self_register(self, monkeypatch):
        sim, source = self._flow(monkeypatch)
        assert source in sim.invariants._flows
        assert sim.invariants._queues  # the star's link queues

    def test_cwnd_below_one_segment_is_caught(self, monkeypatch):
        sim, source = self._flow(monkeypatch)
        source.send_bytes(10_000)
        sim.run(until=0.001)
        source.cwnd = 0.5
        with pytest.raises(InvariantViolation, match="cwnd"):
            sim.invariants.check_all()

    def test_negative_flight_is_caught(self, monkeypatch):
        sim, source = self._flow(monkeypatch)
        source.send_bytes(10_000)
        sim.run(until=0.001)
        source.highest_ack = source.t_seqno + 5
        with pytest.raises(InvariantViolation, match="in_flight|flight"):
            sim.invariants.check_all()

    def test_clean_transfer_passes(self, monkeypatch):
        sim, source = self._flow(monkeypatch)
        msg = source.send_bytes(50_000)
        sim.run(until=1.0)
        assert msg.finish_time is not None
        assert sim.invariants.events_seen > 0
        assert sim.invariants.checks_run > 0
        assert sim.invariants.violations == 0

    def test_trim_probe_pair_is_not_a_violation(self, monkeypatch):
        """TRIM sends its probe pair below the minimum window; the
        high-water-mark + slack cap must accommodate it."""
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        sim, _star, source, _sink = make_pair("trim", config=None)
        source.send_bytes(30_000)
        sim.run(until=0.2)
        source.send_bytes(30_000)  # second train: probe mode entered
        sim.run(until=1.0)
        assert sim.invariants.checks_run > 0


class TestExperimentsUnderInvariants:
    @pytest.mark.parametrize("experiment_id", registry.canonical_ids())
    def test_first_quick_point_runs_clean(self, experiment_id, monkeypatch):
        """Every registered experiment's quick preset satisfies the
        kernel/queue/flow invariants (first sweep point, TRIM where the
        experiment takes a protocol — the variant with probe traffic)."""
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        exp = registry.get(experiment_id)
        if exp.uses_protocols:
            params = exp.make_params("quick", protocol="trim")
        else:
            params = exp.make_params("quick")
        points = exp.points(params)
        assert points
        exp.run_point(params, points[0], 1)  # raises on any violation


class TestCliFlag:
    def test_check_invariants_flag_sets_environment(self, monkeypatch, capsys):
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert main(["fig1", "--preset", "quick", "--no-cache",
                     "--check-invariants"]) == 0
        assert os.environ["REPRO_CHECK_INVARIANTS"] == "1"
        assert "fig1" in capsys.readouterr().out
