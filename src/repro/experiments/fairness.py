"""Convergence and fairness — Figure 10.

Five long trains towards one receiver start one by one and later stop
one by one; server links run at 1.1 Gbps so the 1 Gbps receiver link is
the single bottleneck.  The paper's observation: TCP-TRIM's per-flow
throughputs converge quickly to the fair share at every arrival and
departure, while TCP converges noisily.

The paper runs 22 simulated seconds at 1 Gbps; the ``quick`` preset
scales time by 10× and bandwidth by 10× down, preserving the number of
arrival/departure epochs (what the figure is actually about).
"""

from __future__ import annotations

from typing import Any, Sequence

from dataclasses import dataclass

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.scenarios import (
    ConnectionSet,
    ecn_threshold_for,
    packets_per_second,
    path_base_rtt,
    warm_config,
)
from repro.http.apps import LongTrainSender
from repro.metrics.stats import jain_fairness
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.sim.monitor import PeriodicSampler, TimeSeries, delta_rate
from repro.tcp.factory import default_config

__all__ = [
    "FairnessExperiment",
    "FairnessParams",
    "FairnessResult",
    "run_fairness",
]


@dataclass
class FairnessParams:
    """Fig. 10 parameters (paper defaults)."""

    protocol: str = "reno"
    n_flows: int = 5
    bottleneck_bps: float = 1e9
    server_bps: float = 1.1e9
    delay_s: float = 50e-6
    buffer_pkts: int = 100
    first_start: float = 0.1
    stagger: float = 2.0  # next flow starts/stops this much later
    stop_start: float = 12.1
    sample_period: float = 50e-3
    min_rto: float = 10e-3

    @property
    def end_time(self) -> float:
        return self.stop_start + self.stagger * (self.n_flows - 1) + self.stagger / 2

    @classmethod
    def paper(cls, protocol: str = "reno", **overrides: Any) -> "FairnessParams":
        return cls(protocol=protocol, **overrides)

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "FairnessParams":
        """10× shorter epochs at 10× lower speed: same epoch structure."""
        defaults = dict(
            bottleneck_bps=1e8,
            server_bps=1.1e8,
            stagger=0.2,
            stop_start=1.21,
            first_start=0.01,
            sample_period=10e-3,
        )
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class FairnessResult:
    """Per-flow throughput curves plus per-epoch fairness indices."""

    protocol: str
    flow_series: list[TimeSeries]
    #: Jain's index over the all-flows-active plateau
    plateau_fairness: float
    #: mean per-flow throughput (bps) over the plateau, flow order
    plateau_shares: list[float]
    timeouts: int


def run_fairness(params: FairnessParams) -> FairnessResult:
    """Run Fig. 10's staggered arrival/departure schedule."""
    sim = Simulator()
    star = build_star(
        sim,
        params.n_flows,
        bandwidth_bps=params.server_bps,
        delay_s=params.delay_s,
        buffer_pkts=params.buffer_pkts,
        frontend_bandwidth_bps=params.bottleneck_bps,
        ecn_threshold_pkts=ecn_threshold_for(params.protocol, params.bottleneck_bps),
    )
    config = default_config(
        params.protocol, min_rto=params.min_rto, initial_rto=max(params.min_rto, 1e-3)
    )
    connections = ConnectionSet(
        sim,
        params.protocol,
        config=config,
        capacity_pps=packets_per_second(params.bottleneck_bps),
        base_rtt=path_base_rtt(
            [(params.delay_s, params.server_bps), (params.delay_s, params.bottleneck_bps)]
        ),
    )
    sources = connections.connect_many(
        star.servers, star.frontend, config=warm_config(config)
    )
    # Per-connection goodput in bits/s, from deltas of each sink's
    # unique deliveries (Fig. 10's curves are per connection).
    monitors = [
        PeriodicSampler(
            sim,
            params.sample_period,
            delta_rate(
                lambda sink=sink: sink.delivered_bytes, params.sample_period, scale=8.0
            ),
            name=f"flow:{sink.name}",
        ).start(0.0)
        for sink in connections.sinks
    ]
    for i, source in enumerate(sources):
        sender = LongTrainSender(sim, source, params.first_start + i * params.stagger)
        sender.start()
        sender.stop_at(params.stop_start + i * params.stagger)

    sim.run(until=params.end_time)

    # The plateau where all flows are active: from the last arrival to
    # the first departure, trimmed by one stagger/4 on each side.
    plateau_start = params.first_start + (params.n_flows - 1) * params.stagger
    plateau_end = params.stop_start
    margin = params.stagger / 4.0
    shares = [
        m.series.window(plateau_start + margin, plateau_end - margin).mean()
        for m in monitors
    ]
    return FairnessResult(
        protocol=params.protocol,
        flow_series=[m.series for m in monitors],
        plateau_fairness=jain_fairness(shares),
        plateau_shares=shares,
        timeouts=connections.total_timeouts,
    )


@register
class FairnessExperiment(Experiment):
    """Fig. 10: a single staggered arrival/departure run."""

    id = "fig10"
    title = "Fig. 10 convergence and fairness"
    params_cls = FairnessParams

    def points(self, params: FairnessParams) -> list[Point]:
        return [Point("run")]

    def run_point(self, params: FairnessParams, point: Point, seed: int) -> Any:
        return run_fairness(params)

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        return results[0]

    def report(self, params: Any, payload: Any) -> None:
        r = payload
        shares = [f"{s / 1e6:.0f}" for s in r.plateau_shares]
        print(f"[{params.protocol}] Fig.10 plateau shares (Mbps): {shares}  "
              f"Jain={r.plateau_fairness:.4f}  timeouts={r.timeouts}")
