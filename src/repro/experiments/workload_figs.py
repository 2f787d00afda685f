"""Workload characterization — Figures 1 and 2.

Fig. 1 plots the packet-sequence staircase of one web server's trains;
Fig. 2 gives the CDFs of train size and inter-train gap.  Here we (a)
generate a synthetic ON/OFF trace from the Fig. 2 samplers, (b) expand
it to per-packet times the way the paper's trace analysis saw them, and
(c) re-extract the trains with the Sec. II.A gap rule — verifying the
round trip workload → packets → trains reproduces the published
statistics (the anchors of Fig. 2).
"""

from __future__ import annotations

from typing import Any, Sequence

from dataclasses import dataclass

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.http.packet_train import PacketTrain, extract_trains, train_intervals
from repro.http.workload import generate_onoff_schedule
from repro.net.packet import MSS_BYTES
from repro.sim.randomness import seeded_rng

__all__ = [
    "WorkloadExperiment",
    "WorkloadFigures",
    "WorkloadParams",
    "characterize_workload",
]


@dataclass
class WorkloadFigures:
    """Everything Figs. 1 and 2 report about one connection's traffic."""

    packet_times: list[float]
    packet_sizes: list[int]
    trains: list[PacketTrain]
    gaps: list[float]

    @property
    def train_sizes(self) -> list[int]:
        return [t.total_bytes for t in self.trains]

    @property
    def n_long_trains(self) -> int:
        return sum(1 for t in self.trains if t.is_long)

    def size_fraction_below(self, size_bytes: float) -> float:
        sizes = self.train_sizes
        return sum(1 for s in sizes if s <= size_bytes) / len(sizes)


def characterize_workload(
    seed: int = 1,
    duration: float = 10.0,
    line_rate_bps: float = 1e9,
    gap_rule: float = 150e-6,
) -> WorkloadFigures:
    """Generate, packetize, and re-extract one server's packet trains.

    ``gap_rule`` is the inter-train gap used for re-extraction; it must
    sit between the per-packet serialization time and the smallest OFF
    gap of the generator (the paper uses the smoothed RTT).
    """
    rng = seeded_rng(seed)
    events = generate_onoff_schedule(
        rng, duration=duration, drain_rate_bps=line_rate_bps
    )
    if not events:
        raise RuntimeError("duration too short: no trains generated")
    packet_gap = MSS_BYTES * 8.0 / line_rate_bps
    times: list[float] = []
    sizes: list[int] = []
    for event in events:
        n_packets = max(1, -(-event.size_bytes // MSS_BYTES))
        remaining = event.size_bytes
        for i in range(n_packets):
            times.append(event.time + i * packet_gap)
            sizes.append(min(MSS_BYTES, remaining))
            remaining -= MSS_BYTES
    trains = extract_trains(times, sizes, gap=gap_rule)
    return WorkloadFigures(
        packet_times=times,
        packet_sizes=sizes,
        trains=trains,
        gaps=train_intervals(trains),
    )


@dataclass
class WorkloadParams:
    """Fig. 1/2 characterization parameters (no protocol involved)."""

    seed: int = 1
    duration: float = 10.0
    line_rate_bps: float = 1e9
    gap_rule: float = 150e-6

    @classmethod
    def quick(cls, **overrides: Any) -> "WorkloadParams":
        return cls(**overrides)


@register
class WorkloadExperiment(Experiment):
    """Figs. 1 and 2: the workload → packets → trains round trip."""

    id = "fig1"
    aliases = ("fig2",)
    title = "Fig. 1/2 workload characterization"
    params_cls = WorkloadParams

    def points(self, params: WorkloadParams) -> list[Point]:
        return [Point("workload")]

    def run_point(self, params: WorkloadParams, point: Point, seed: int) -> Any:
        wl = characterize_workload(
            seed=seed,
            duration=params.duration,
            line_rate_bps=params.line_rate_bps,
            gap_rule=params.gap_rule,
        )
        return {
            "n_trains": len(wl.trains),
            "n_packets": len(wl.packet_times),
            "n_long_trains": wl.n_long_trains,
            "frac_le_4k": wl.size_fraction_below(4096),
            "frac_le_128k": wl.size_fraction_below(131072),
            "gap_min": min(wl.gaps) if wl.gaps else None,
            "gap_max": max(wl.gaps) if wl.gaps else None,
        }

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        return results[0]

    def report(self, params: Any, payload: Any) -> None:
        if payload is None:
            print("Fig.1/2 workload: point failed")
            return
        MS = 1e3
        print(f"Fig.1/2 workload: {payload['n_trains']} trains, "
              f"{payload['n_packets']} packets")
        print(f"  LPTs (>=128KB): {payload['n_long_trains']} "
              f"({payload['n_long_trains'] / payload['n_trains']:.1%}, paper: ~10%)")
        print(f"  trains <= 4KB: {payload['frac_le_4k']:.1%} (paper: <20%)")
        print(f"  trains <= 128KB: {payload['frac_le_128k']:.1%} (paper: ~90%)")
        if payload["gap_min"] is not None:
            print(f"  inter-train gaps: {payload['gap_min'] * 1e6:.0f}us .. "
                  f"{payload['gap_max'] * MS:.2f}ms "
                  f"(paper: hundreds of us to several ms)")
