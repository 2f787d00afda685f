"""Driver and experiment-level tests for the open-loop engine."""

import pytest

from repro.experiments import registry
from repro.experiments.openloop import (
    OpenLoopExperiment,
    OpenLoopParams,
    run_openloop_point,
)
from repro.http.openloop import (
    FanoutSpec,
    OpenLoopDriver,
    PoissonArrivals,
    SessionConfig,
    compile_schedule,
)
from repro.net.topology import build_star
from repro.obs import Telemetry, TraceSpec, write_jsonl
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig
from tests.helpers import FAST


def drive(seed=3, telemetry=None, **driver_kwargs):
    schedule = compile_schedule(
        PoissonArrivals(80.0),
        SessionConfig(mean_requests=2.0, think_time_s=0.02),
        seed=seed,
        horizon=0.5,
    )
    sim = Simulator(telemetry=telemetry)
    star = build_star(sim, 2)
    driver_kwargs.setdefault("idle_timeout_s", 0.1)
    driver = OpenLoopDriver(
        sim, star.frontend, star.servers, "reno", **driver_kwargs
    )
    run = driver.play(schedule)
    sim.run(until=1.0)
    return schedule, driver, run


class TestOpenLoopDriver:
    def test_all_offered_requests_complete(self):
        schedule, driver, run = drive()
        assert run.offered == len(schedule)
        assert run.issued == run.offered
        assert run.completed == run.offered
        assert len(run.latencies) == run.completed
        assert all(latency > 0 for latency in run.latencies)
        assert run.bytes_completed == schedule.total_bytes
        driver.check_conservation()

    def test_pool_stats_aggregate_servers(self):
        _, driver, run = drive()
        stats = driver.pool_stats()
        assert stats.leases == run.issued
        assert stats.opened >= len(driver.pools)  # both servers hit
        assert 0.0 < stats.reuse_fraction <= 1.0

    def test_total_timeouts_sum_every_opened_connection(self):
        """The driver keeps no roster, yet the RTOs of connections its
        pools have closed still count beside those of live ones."""
        schedule = compile_schedule(
            PoissonArrivals(200.0),
            SessionConfig(
                mean_requests=2.0, think_time_s=0.02, fanout=FanoutSpec(leaves=8)
            ),
            seed=1,
            horizon=0.2,
        )
        sim = Simulator(check_invariants=False)
        star = build_star(sim, 2, buffer_pkts=8)
        driver = OpenLoopDriver(
            sim, star.frontend, star.servers, "reno", config=TcpConfig(**FAST),
            idle_timeout_s=0.005, max_reuse=3,
        )
        opened = []
        for pool in driver.pools:
            def factory(conn_id, make=pool.factory):
                opened.append(make(conn_id))
                return opened[-1]

            pool.factory = factory
        run = driver.play(schedule)

        def rtos(sessions):
            return sum(session.response_source.timeouts for session in sessions)

        sim.run(until=0.1)  # mid-run: some connections closed, some live
        live = [s for pool in driver.pools for s in pool.connections()]
        closed = [s for s in opened if all(s is not other for other in live)]
        assert live and rtos(closed) > 0 and rtos(live) > 0
        assert driver.total_timeouts() == rtos(opened)
        sim.run(until=1.0)
        assert run.completed == run.offered
        assert len(opened) == driver.pool_stats().opened
        assert driver.total_timeouts() == rtos(opened)

    def test_requires_servers(self):
        sim = Simulator()
        star = build_star(sim, 1)
        with pytest.raises(ValueError):
            OpenLoopDriver(sim, star.frontend, [], "reno")

    def test_session_telemetry_emitted(self):
        telemetry = Telemetry(TraceSpec.parse("session,pool"))
        schedule, _, run = drive(telemetry=telemetry)
        session_rows = [r for r in telemetry.rows() if r["ch"] == "session"]
        requests = [r for r in session_rows if r["event"] == "request"]
        completes = [r for r in session_rows if r["event"] == "complete"]
        assert len(requests) == run.issued
        assert len(completes) == run.completed
        assert all("size" in r for r in requests)
        assert all(r["latency"] > 0 for r in completes)
        assert any(r.channel == "pool" for r in telemetry.records())  # churn

    def test_telemetry_deterministic_across_runs(self, tmp_path):
        one = Telemetry(TraceSpec.parse("session,pool"))
        two = Telemetry(TraceSpec.parse("session,pool"))
        drive(telemetry=one)
        drive(telemetry=two)
        a = write_jsonl(one.rows(), tmp_path / "a.jsonl")
        b = write_jsonl(two.rows(), tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()


class TestOpenLoopExperiment:
    def test_registered(self):
        assert isinstance(registry.get("openloop"), OpenLoopExperiment)
        assert registry.get("openloop").accepts_openloop

    def test_points_one_per_load_factor(self):
        exp = OpenLoopExperiment()
        params = OpenLoopParams(load_factors=(0.5, 1.0, 2.0))
        points = exp.points(params)
        assert [p.label for p in points] == ["load0.5", "load1", "load2"]

    def test_replay_collapses_to_one_point(self):
        exp = OpenLoopExperiment()
        params = OpenLoopParams(replay=((0.01, 0, 1000), (0.02, 1, 2000)))
        points = exp.points(params)
        assert [p.label for p in points] == ["replay"]

    def test_run_point_deterministic(self):
        params = OpenLoopParams.quick()
        one = run_openloop_point(params, 1.0, seed=5)
        two = run_openloop_point(params, 1.0, seed=5)
        assert one == two

    def test_run_point_measures_load(self):
        params = OpenLoopParams.quick()
        case = run_openloop_point(params, 1.0, seed=5)
        assert case.offered > 0
        assert case.completed == case.offered
        assert case.latency_p50 is not None
        assert case.latency_p99 >= case.latency_p50
        assert case.conns_opened >= params.n_servers

    def test_replay_point_runs(self):
        params = OpenLoopParams.quick(
            replay=((0.01, 0, 1460), (0.05, 1, 2920), (0.08, 0, 1460)),
        )
        case = run_openloop_point(params, 1.0, seed=9)
        assert case.offered == 3
        assert case.completed == 3

    def test_offered_load_scales_with_factor(self):
        params = OpenLoopParams.quick()
        low = run_openloop_point(params, 0.5, seed=4)
        high = run_openloop_point(params, 4.0, seed=4)
        assert high.offered > low.offered

    def test_quick_params_sane(self):
        params = OpenLoopParams.quick("trim")
        assert params.protocol == "trim"
        assert len(params.load_factors) == 2
        config = params.session_config()
        assert config.mean_requests == params.mean_requests
