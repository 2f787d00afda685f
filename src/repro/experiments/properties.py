"""TCP-TRIM properties — Figure 9 (a)–(d).

A star of long-train senders behind one switch (1 Gbps / 50 µs / 100
packets) exercised four ways:

* (a) the queue-length trace with 5 persistent LPTs (saw-tooth hitting
  the buffer ceiling for TCP; small and stable for TCP-TRIM);
* (b) average queue length versus the number of concurrent trains
  (RTO pinned to 1 ms so timeouts do not distort the average);
* (c) dropped packets over the same sweep (zero for TCP-TRIM);
* (d) goodput of the bottleneck link (≈98% utilization for TCP-TRIM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

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
from repro.net.topology import StarTopology, build_star
from repro.sim.kernel import Simulator
from repro.sim.monitor import PeriodicSampler, TimeSeries
from repro.tcp.factory import default_config

__all__ = [
    "PropertiesCase",
    "PropertiesExperiment",
    "PropertiesParams",
    "run_properties_case",
    "run_properties_sweep",
    "run_queue_trace",
]


@dataclass
class PropertiesParams:
    """Shared scenario parameters for Fig. 9 (paper defaults)."""

    protocol: str = "reno"
    bandwidth_bps: float = 1e9
    delay_s: float = 50e-6
    buffer_pkts: int = 100
    start_time: float = 0.1
    end_time: float = 0.9
    min_rto: float = 1e-3  # Fig. 9(b)-(d) pin RTO at 1 ms
    queue_period: float = 0.5e-3
    measure_from: float = 0.2  # steady-state window start
    trace_trains: int = 5  # Fig. 9(a) runs five persistent LPTs
    sweep_counts: Sequence[int] = (2, 4, 6, 8, 10)

    @classmethod
    def paper(cls, protocol: str = "reno", **overrides: Any) -> "PropertiesParams":
        return cls(protocol=protocol, **overrides)

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "PropertiesParams":
        defaults = dict(end_time=0.4, measure_from=0.15)
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class PropertiesCase:
    """One sweep point of Fig. 9(b)–(d)."""

    n_trains: int
    average_queue_pkts: float
    peak_queue_pkts: float
    dropped_packets: int
    goodput_bps: float
    utilization: float
    timeouts: int


def _build(
    params: PropertiesParams, n_trains: int
) -> tuple[Simulator, StarTopology, ConnectionSet, list[TcpSource]]:
    sim = Simulator()
    star = build_star(
        sim,
        n_trains,
        bandwidth_bps=params.bandwidth_bps,
        delay_s=params.delay_s,
        buffer_pkts=params.buffer_pkts,
        ecn_threshold_pkts=ecn_threshold_for(params.protocol, params.bandwidth_bps),
    )
    config = default_config(
        params.protocol, min_rto=params.min_rto, initial_rto=max(params.min_rto, 1e-3)
    )
    connections = ConnectionSet(
        sim,
        params.protocol,
        config=config,
        capacity_pps=packets_per_second(params.bandwidth_bps),
        base_rtt=path_base_rtt(
            [(params.delay_s, params.bandwidth_bps)] * 2
        ),
    )
    sources = connections.connect_many(
        star.servers, star.frontend, config=warm_config(config)
    )
    for source in sources:
        LongTrainSender(sim, source, params.start_time).start()
    return sim, star, connections, sources


def _queue_sampler(
    sim: Simulator, star: StarTopology, params: PropertiesParams
) -> PeriodicSampler:
    """Samples the bottleneck's egress backlog (packets)."""
    link = star.bottleneck
    return PeriodicSampler(
        sim, params.queue_period, lambda: link.backlog_pkts, name=f"qlen:{link.name}"
    )


def run_queue_trace(params: PropertiesParams, n_trains: int = 5) -> TimeSeries:
    """Fig. 9(a): the bottleneck queue trace with ``n_trains`` LPTs."""
    sim, star, _connections, sources = _build(params, n_trains)
    monitor = _queue_sampler(sim, star, params).start(0.0)
    for source in sources:
        sim.schedule_at(params.end_time, source.stop)
    sim.run(until=params.end_time)
    return monitor.series


def run_properties_case(params: PropertiesParams, n_trains: int) -> PropertiesCase:
    """One point of the Fig. 9(b)–(d) sweep."""
    if n_trains < 1:
        raise ValueError("need at least one train")
    sim, star, connections, sources = _build(params, n_trains)
    monitor = _queue_sampler(sim, star, params).start(params.measure_from)
    frontend_sinks = connections.sinks

    delivered_at_start = {}

    def snapshot() -> None:
        for sink in frontend_sinks:
            delivered_at_start[sink.flow_id] = sink.delivered_segments

    sim.schedule_at(params.measure_from, snapshot)
    sim.run(until=params.end_time)

    window = params.end_time - params.measure_from
    delivered_segments = sum(
        sink.delivered_segments - delivered_at_start.get(sink.flow_id, 0)
        for sink in frontend_sinks
    )
    goodput = delivered_segments * connections.sources[0].config.mss_bytes * 8.0 / window
    return PropertiesCase(
        n_trains=n_trains,
        average_queue_pkts=monitor.series.mean(),
        peak_queue_pkts=monitor.series.max(),
        dropped_packets=star.network.total_dropped(),
        goodput_bps=goodput,
        utilization=goodput / params.bandwidth_bps,
        timeouts=connections.total_timeouts,
    )


def run_properties_sweep(
    params: PropertiesParams, counts: Sequence[int] = (2, 4, 6, 8, 10)
) -> list[PropertiesCase]:
    """Fig. 9(b)–(d): sweep the number of concurrent long trains."""
    return [run_properties_case(params, n) for n in counts]


@register
class PropertiesExperiment(Experiment):
    """Fig. 9: the queue trace plus one point per train count."""

    id = "fig9"
    title = "Fig. 9 TCP-TRIM properties (queue, drops, goodput)"
    params_cls = PropertiesParams

    def points(self, params: PropertiesParams) -> list[Point]:
        return [Point("trace")] + [
            Point(f"n{n}", {"n_trains": n}) for n in params.sweep_counts
        ]

    def run_point(self, params: PropertiesParams, point: Point, seed: int) -> Any:
        if point.label == "trace":
            return run_queue_trace(params, n_trains=params.trace_trains)
        return run_properties_case(params, point.kwargs["n_trains"])

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        return {
            "queue_trace": results[0],
            "sweep": [r for r in results[1:] if r is not None],
        }

    def report(self, params: Any, payload: Any) -> None:
        trace = payload["queue_trace"]
        print(f"[{params.protocol}] Fig.9a queue with "
              f"{params.trace_trains} LPTs: "
              f"mean={trace.mean():6.1f}pkt  peak={trace.max():5.0f}pkt")
        print(f"[{params.protocol}] Fig.9b-d sweep:")
        for case in payload["sweep"]:
            print(f"  n={case.n_trains:2d}  AQL={case.average_queue_pkts:6.1f}pkt  "
                  f"drops={case.dropped_packets:6d}  "
                  f"goodput={case.goodput_bps / 1e6:7.1f}Mbps "
                  f"({case.utilization:.1%})")
