"""Multi-hop, multi-bottleneck throughput — Figure 11.

Groups A and B (10 senders each) send long trains to the front-end;
group C's 10 senders each send a long train to a distinct group-D
receiver.  The switch1→switch2 and switch2→front-end trunks are both
oversubscribed; group A's traffic crosses both.  The paper reports
per-sender averages of roughly 342.7 / 638 / 318 Mbps for A/B/C under
TCP-TRIM versus 259 / 471 / 233 Mbps under TCP.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.tcp.base import TcpSink

from dataclasses import dataclass

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.scenarios import (
    ConnectionSet,
    ecn_threshold_for,
)
from repro.http.apps import LongTrainSender
from repro.net.packet import MSS_BYTES
from repro.net.topology import build_multi_hop
from repro.sim.kernel import Simulator

__all__ = [
    "MultiHopExperiment",
    "MultiHopParams",
    "MultiHopResult",
    "run_multihop",
]


@dataclass
class MultiHopParams:
    """Fig. 11 parameters (paper defaults)."""

    protocol: str = "reno"
    group_size: int = 10
    host_bps: float = 1e9
    trunk_bps: float = 10e9
    host_delay_s: float = 20e-6
    trunk_delay_s: float = 10e-6
    buffer_pkts: int = 100
    trunk_buffer_pkts: int = 250
    start_time: float = 0.05
    end_time: float = 0.55
    measure_from: float = 0.15
    min_rto: float = 10e-3

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "MultiHopParams":
        """10× slower links, same oversubscription ratios."""
        defaults = dict(host_bps=1e8, trunk_bps=1e9, end_time=0.8, measure_from=0.2)
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class MultiHopResult:
    """Per-sender mean throughput (bps) for each group."""

    protocol: str
    group_a_bps: list[float]
    group_b_bps: list[float]
    group_c_bps: list[float]
    timeouts: int
    dropped_packets: int

    def mean(self, group: str) -> float:
        values = getattr(self, f"group_{group}_bps")
        return sum(values) / len(values)


def run_multihop(params: MultiHopParams) -> MultiHopResult:
    """Run Fig. 11's two-bottleneck scenario."""
    sim = Simulator()
    topo = build_multi_hop(
        sim,
        group_size=params.group_size,
        host_bandwidth_bps=params.host_bps,
        host_delay_s=params.host_delay_s,
        trunk_bandwidth_bps=params.trunk_bps,
        trunk_delay_s=params.trunk_delay_s,
        buffer_pkts=params.buffer_pkts,
        trunk_buffer_pkts=params.trunk_buffer_pkts,
        ecn_threshold_pkts=ecn_threshold_for(params.protocol, params.host_bps),
    )
    connections = ConnectionSet(
        sim,
        params.protocol,
        params.min_rto,
        topo.network.path(topo.group_a[0], topo.frontend),
    )
    connections.connect_many(topo.group_a + topo.group_b, topo.frontend, warm=True)
    for sender, receiver in zip(topo.group_c, topo.group_d):
        connections.connect(sender, receiver, warm=True)
    sources, sinks = connections.sources, connections.sinks
    for source in sources:
        LongTrainSender(sim, source, params.start_time).start()

    baseline: dict[int, int] = {}

    def snapshot() -> None:
        for sink in sinks:
            baseline[sink.flow_id] = sink.delivered_segments

    sim.schedule_at(params.measure_from, snapshot)
    sim.run(until=params.end_time)

    window = params.end_time - params.measure_from

    def throughput(sink: TcpSink) -> float:
        segments = sink.delivered_segments - baseline.get(sink.flow_id, 0)
        return segments * MSS_BYTES * 8.0 / window

    g = params.group_size
    return MultiHopResult(
        protocol=params.protocol,
        group_a_bps=[throughput(s) for s in sinks[:g]],
        group_b_bps=[throughput(s) for s in sinks[g : 2 * g]],
        group_c_bps=[throughput(s) for s in sinks[2 * g :]],
        timeouts=connections.total_timeouts,
        dropped_packets=topo.network.total_dropped(),
    )


@register
class MultiHopExperiment(Experiment):
    """Fig. 11: a single two-bottleneck run per protocol."""

    id = "fig11"
    title = "Fig. 11 multi-hop, multi-bottleneck throughput"
    params_cls = MultiHopParams

    def points(self, params: MultiHopParams) -> list[Point]:
        return [Point("run")]

    def run_point(self, params: MultiHopParams, point: Point, seed: int) -> Any:
        return run_multihop(params)

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        return results[0]

    def report(self, params: Any, payload: Any) -> None:
        r = payload
        print(f"[{params.protocol}] Fig.11 per-sender throughput: "
              f"A={r.mean('a') / 1e6:6.1f}Mbps  B={r.mean('b') / 1e6:6.1f}Mbps  "
              f"C={r.mean('c') / 1e6:6.1f}Mbps  "
              f"timeouts={r.timeouts}  drops={r.dropped_packets}")
