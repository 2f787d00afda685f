"""Open-loop offered-load sweeps — the scenario-diversity engine.

Closed-loop figures fix concurrency and measure completion times; this
experiment fixes *offered load* and lets concurrency emerge.  Each
point compiles a seeded arrival schedule (Poisson/MMPP/diurnal, or a
replayed trace), plays it through per-server keep-alive pools onto a
star topology, and measures what the protocol under test delivers:
achieved request rate, completion-latency percentiles, and the pool
churn (cold opens, idle closes, reuse fraction) the paper's
aggressive-TCP premise turns on — every fresh connection restarts
slow-start, so a reconnect storm *is* the aggressive-behavior trigger.

The sweep coordinate is a multiplicative load factor over the arrival
spec's base rate; ``--arrivals`` swaps the process, ``--replay`` swaps
the whole schedule for a recorded trace (one point, factor 1).  Same
seed + same spec ⇒ byte-identical schedules and telemetry under every
backend and ``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.scenarios import (
    ecn_threshold_for,
    protocol_kwargs,
    run_until,
)
from repro.http.openloop.arrivals import parse_arrivals
from repro.http.openloop.driver import OpenLoopDriver
from repro.http.openloop.sessions import (
    FanoutSpec,
    ScheduledRequest,
    SessionConfig,
    SessionSchedule,
    compile_schedule,
)
from repro.net.topology import build_star
from repro.sim.kernel import Simulator

__all__ = [
    "OpenLoopCase",
    "OpenLoopExperiment",
    "OpenLoopParams",
    "run_openloop_point",
]


@dataclass
class OpenLoopParams:
    """Offered-load sweep parameters.

    ``arrivals`` is the spec-grammar string (see
    :mod:`repro.http.openloop.arrivals`); ``load_factors`` multiply its
    rates, one sweep point each.  ``replay`` — rows of ``(t, session,
    size)`` — overrides arrivals entirely: the sweep collapses to one
    replayed point, so a recorded trace drives any protocol.
    """

    protocol: str = "reno"
    arrivals: str = "poisson:rate=120"
    load_factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0)
    horizon: float = 2.0
    drain: float = 1.0
    n_servers: int = 4
    mean_requests: float = 3.0
    think_time_s: float = 0.05
    fanout_aggregators: int = 1
    fanout_leaves: int = 1
    idle_timeout_s: float = 0.2
    max_reuse: int = 64
    bandwidth_bps: float = 1e9
    delay_s: float = 50e-6
    buffer_pkts: int = 100
    min_rto: float = 0.01
    replay: Optional[tuple[tuple[float, int, int], ...]] = None

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "OpenLoopParams":
        defaults: dict[str, Any] = dict(
            arrivals="poisson:rate=60",
            load_factors=(0.5, 1.5),
            horizon=1.0,
            drain=0.5,
            n_servers=2,
            mean_requests=2.0,
        )
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)

    def session_config(self) -> SessionConfig:
        return SessionConfig(
            mean_requests=self.mean_requests,
            think_time_s=self.think_time_s,
            fanout=FanoutSpec(
                aggregators=self.fanout_aggregators,
                leaves=self.fanout_leaves,
            ),
        )


@dataclass
class OpenLoopCase:
    """One offered-load point's measurements."""

    load_factor: float
    offered_rate: float  # scheduled requests per second
    offered: int  # scheduled requests
    issued: int
    completed: int
    achieved_rate: float  # completed per horizon second
    latency_p50: Optional[float]
    latency_p99: Optional[float]
    conns_opened: int
    conns_closed_idle: int
    conns_closed_retired: int
    reuse_fraction: float
    timeouts: int


def _percentile(sorted_values: list[float], q: float) -> float:
    pos = (q / 100.0) * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def _build_schedule(
    params: OpenLoopParams, factor: float, seed: int
) -> SessionSchedule:
    if params.replay is not None:
        rows = [
            ScheduledRequest(time=t, session=s, size_bytes=b)
            for t, s, b in params.replay
        ]
        # A replayed trace may extend past the preset horizon; stretch
        # it so the drain deadline covers every recorded request.
        last = max((r.time for r in rows), default=0.0)
        horizon = max(params.horizon, last + 1e-9)
        return SessionSchedule.from_requests(rows, horizon=horizon)
    process = parse_arrivals(params.arrivals).scaled(factor)
    return compile_schedule(
        process,
        params.session_config(),
        seed=seed,
        horizon=params.horizon,
    )


def run_openloop_point(
    params: OpenLoopParams, factor: float, seed: int
) -> OpenLoopCase:
    """Compile one schedule and drive it through the simulator."""
    schedule = _build_schedule(params, factor, seed)
    horizon = schedule.horizon
    offered_rate = schedule.offered_rate()
    sim = Simulator()
    star = build_star(
        sim,
        params.n_servers,
        bandwidth_bps=params.bandwidth_bps,
        delay_s=params.delay_s,
        buffer_pkts=params.buffer_pkts,
        ecn_threshold_pkts=ecn_threshold_for(params.protocol, params.bandwidth_bps),
    )
    driver = OpenLoopDriver(
        sim,
        star.frontend,
        star.servers,
        params.protocol,
        idle_timeout_s=params.idle_timeout_s,
        max_reuse=params.max_reuse,
        **protocol_kwargs(
            params.protocol,
            params.min_rto,
            star.network.path(star.servers[0], star.frontend),
        ),
    )
    run = driver.play(schedule)
    # The timeline now holds each request until it is issued; holding
    # the whole schedule as well would keep every request to the end.
    del schedule
    deadline = horizon + params.drain
    run_until(sim, lambda: run.completed >= run.offered, deadline)
    driver.check_conservation()
    stats = driver.pool_stats()
    latencies = sorted(run.latencies)
    return OpenLoopCase(
        load_factor=factor,
        offered_rate=offered_rate,
        offered=run.offered,
        issued=run.issued,
        completed=run.completed,
        achieved_rate=run.completed / horizon,
        latency_p50=_percentile(latencies, 50.0) if latencies else None,
        latency_p99=_percentile(latencies, 99.0) if latencies else None,
        conns_opened=stats.opened,
        conns_closed_idle=stats.closed_idle,
        conns_closed_retired=stats.closed_retired,
        reuse_fraction=stats.reuse_fraction,
        timeouts=driver.total_timeouts(),
    )


@register
class OpenLoopExperiment(Experiment):
    """Offered-load sweep: one independent simulation per load factor."""

    id = "openloop"
    title = "Open-loop offered-load sweep over keep-alive pools"
    params_cls = OpenLoopParams

    def points(self, params: OpenLoopParams) -> list[Point]:
        if params.replay is not None:
            return [Point("replay", {"factor": 1.0})]
        return [
            Point(f"load{factor:g}", {"factor": factor})
            for factor in params.load_factors
        ]

    def run_point(
        self, params: OpenLoopParams, point: Point, seed: int
    ) -> OpenLoopCase:
        return run_openloop_point(params, point.kwargs["factor"], seed)

    def reduce(
        self,
        params: Any,
        points: Sequence[Point],
        results: Sequence[Any],
    ) -> Any:
        return [r for r in results if r is not None]

    def report(self, params: Any, payload: Any) -> None:
        MS = 1e3
        source = "replay" if params.replay is not None else params.arrivals
        print(
            f"[{params.protocol}] open-loop load ({source}, "
            f"{params.n_servers} servers, horizon {params.horizon:g}s):"
        )
        for case in payload:
            p50 = f"{case.latency_p50 * MS:7.2f}" if case.latency_p50 else "      -"
            p99 = f"{case.latency_p99 * MS:7.2f}" if case.latency_p99 else "      -"
            print(
                f"  x{case.load_factor:<4g} offered={case.offered_rate:7.1f}/s  "
                f"done={case.completed}/{case.offered}  "
                f"p50={p50} ms  p99={p99} ms  "
                f"conns={case.conns_opened} "
                f"(reuse {case.reuse_fraction * 100:.0f}%)  "
                f"timeouts={case.timeouts}"
            )
