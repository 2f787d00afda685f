"""Robustness under injected faults: goodput and RTOs vs intensity.

Not a figure in the paper — a chaos harness around its claims.  N
long-lived senders share the star bottleneck while a deterministic
:class:`~repro.faults.FaultPlan` batters the switch→front-end link:
a loss burst, a delay-jitter window, a background-traffic surge, a
buffer shrink/restore, and a short outage.  The sweep scales the plan's
stochastic magnitudes by an *intensity* factor (0 = fault-free
baseline) and reports, per intensity, the foreground goodput, the RTO
count, and the injected-versus-congestion loss ledger
(:class:`~repro.metrics.faults.FaultReport`).

Comparing protocols under the same seed is meaningful by construction:
the injector draws per-link streams keyed by the point seed and link
name, so Reno, DCTCP, and TRIM face the byte-identical fault schedule.
A custom plan file can replace the built-in one via the CLI's
``--fault-plan`` (see EXPERIMENTS.md, "Fault scenarios")::

    python -m repro.experiments faults --preset quick --fault-plan plan.json
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.scenarios import (
    ConnectionSet,
    ecn_threshold_for,
)
from repro.faults import (
    BackgroundSurge,
    BufferResize,
    Corrupt,
    DelayJitter,
    FaultInjector,
    FaultPlan,
    LinkDown,
    LinkUp,
    LossBurst,
)
from repro.http.apps import burst_at
from repro.metrics.faults import FaultReport, fault_report
from repro.net.packet import MSS_BYTES
from repro.net.topology import build_star
from repro.sim.kernel import Simulator

__all__ = [
    "FaultsCase",
    "FaultsExperiment",
    "FaultsParams",
    "default_fault_plan",
    "run_faults_case",
]

#: the star bottleneck every built-in fault targets.
BOTTLENECK = "sw->frontend"

#: effectively-infinite message for always-backlogged senders.
_BACKLOGGED_SEGMENTS = 10**9


@dataclass
class FaultsParams:
    """Chaos-sweep parameters."""

    protocol: str = "reno"
    #: plan-scaling factors; 0 is the fault-free baseline.
    intensities: Sequence[float] = (0.0, 0.5, 1.0, 2.0)
    senders: int = 8
    #: extra hosts reserved for BackgroundSurge flows.
    surge_hosts: int = 4
    bandwidth_bps: float = 1e9
    frontend_bandwidth_bps: Optional[float] = None
    delay_s: float = 50e-6
    buffer_pkts: int = 64
    min_rto: float = 0.01
    start_time: float = 0.01
    horizon: float = 1.0
    #: JSON text of a FaultPlan overriding :func:`default_fault_plan`
    #: (text rather than a parsed plan so params stay trivially
    #: JSON-able for the cache key and picklable for workers).
    plan_json: Optional[str] = None

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "FaultsParams":
        defaults = dict(
            intensities=(0.0, 1.0),
            senders=4,
            surge_hosts=2,
            bandwidth_bps=100e6,
            frontend_bandwidth_bps=50e6,
            buffer_pkts=16,
            horizon=0.6,
        )
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)

    def plan(self) -> FaultPlan:
        """The unscaled plan this sweep runs (custom or built-in)."""
        if self.plan_json is not None:
            return FaultPlan.from_json(self.plan_json)
        return default_fault_plan(self)


def default_fault_plan(params: FaultsParams) -> FaultPlan:
    """The built-in chaos schedule, laid out as fractions of the horizon.

    One of each impairment the subsystem models, spaced so the flows
    have recovery room between faults; the buffer shrink is restored
    before the run ends so the final stretch measures recovery, not a
    crippled switch.
    """
    h = params.horizon
    return FaultPlan.of([
        LossBurst(time=0.15 * h, link=BOTTLENECK, rate=0.05, duration=0.10 * h),
        Corrupt(time=0.26 * h, link=BOTTLENECK, rate=0.02, duration=0.04 * h),
        DelayJitter(time=0.30 * h, link=BOTTLENECK, mean_s=4e-4, duration=0.10 * h),
        BackgroundSurge(time=0.45 * h, flows=params.surge_hosts, duration=0.15 * h),
        BufferResize(time=0.60 * h, link=BOTTLENECK,
                     pkts=max(1, params.buffer_pkts // 4)),
        LinkDown(time=0.72 * h, link=BOTTLENECK),
        LinkUp(time=0.74 * h, link=BOTTLENECK),
        BufferResize(time=0.85 * h, link=BOTTLENECK, pkts=params.buffer_pkts),
    ])


@dataclass
class FaultsCase:
    """One intensity point of the chaos sweep."""

    intensity: float
    goodput_bps: float  # foreground payload delivered over the run
    timeouts: int  # foreground RTO count
    report: FaultReport

    @property
    def injected_losses(self) -> int:
        return self.report.injected_losses

    @property
    def congestion_drops(self) -> int:
        return self.report.congestion_drops


def run_faults_case(params: FaultsParams, intensity: float, seed: int) -> FaultsCase:
    """One run: the scenario under ``plan.scaled(intensity)``."""
    plan = params.plan().scaled(intensity)
    frontend_bw = params.frontend_bandwidth_bps or params.bandwidth_bps
    sim = Simulator()
    star = build_star(
        sim,
        params.senders + params.surge_hosts,
        bandwidth_bps=params.bandwidth_bps,
        delay_s=params.delay_s,
        buffer_pkts=params.buffer_pkts,
        frontend_bandwidth_bps=params.frontend_bandwidth_bps,
        ecn_threshold_pkts=ecn_threshold_for(params.protocol, frontend_bw),
    )
    connections = ConnectionSet(
        sim,
        params.protocol,
        params.min_rto,
        star.network.path(star.servers[0], star.frontend),
    )
    foreground = connections.connect_many(
        star.servers[: params.senders], star.frontend, warm=True
    )
    surge_sources = connections.connect_many(
        star.servers[params.senders:], star.frontend, warm=True
    )
    burst_at(sim, foreground, params.start_time, _BACKLOGGED_SEGMENTS)

    def surge_factory(index: int) -> Callable[[], None]:
        source = surge_sources[index % len(surge_sources)]
        source.send_message(_BACKLOGGED_SEGMENTS)
        return source.stop

    injector = FaultInjector(
        sim,
        star.network,
        plan,
        seed=seed,
        surge_factory=surge_factory if surge_sources else None,
    )
    injector.arm()
    sim.run(until=params.horizon)

    foreground_sinks = connections.sinks[: params.senders]
    delivered = sum(sink.delivered_segments for sink in foreground_sinks)
    duration = params.horizon - params.start_time
    goodput = delivered * MSS_BYTES * 8.0 / duration
    return FaultsCase(
        intensity=intensity,
        goodput_bps=goodput,
        timeouts=sum(s.stats.timeouts for s in foreground),
        report=fault_report(star.network, injector.total_stats()),
    )


@register
class FaultsExperiment(Experiment):
    """Chaos sweep: one independent simulation per fault intensity."""

    id = "faults"
    title = "Goodput and RTOs under injected faults"
    params_cls = FaultsParams

    def points(self, params: FaultsParams) -> list[Point]:
        return [
            Point(f"i{intensity:g}", {"intensity": intensity})
            for intensity in params.intensities
        ]

    def run_point(self, params: FaultsParams, point: Point, seed: int) -> Any:
        return run_faults_case(params, point.kwargs["intensity"], seed)

    def report(self, params: Any, payload: Any) -> None:
        print(f"[{params.protocol}] goodput/RTOs vs fault intensity "
              f"({params.senders} senders, horizon {params.horizon:g}s):")
        for case in payload:
            r = case.report
            print(f"  intensity={case.intensity:4g}  "
                  f"goodput={case.goodput_bps / 1e6:7.1f} Mbps  "
                  f"timeouts={case.timeouts:3d}  "
                  f"injected={r.injected_losses:4d} "
                  f"(drop {r.injected_drops}, corrupt {r.corrupted}, "
                  f"outage {r.down_drops}, evict {r.evictions})  "
                  f"congestion={r.congestion_drops}")
