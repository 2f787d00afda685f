"""Ablation experiments on TCP-TRIM's design choices.

Three studies beyond the paper's own figures, called out in DESIGN.md:

* :func:`run_k_sweep` — the Eq. 22 threshold versus multiples of it, on
  the simulator: utilization / queue / drops trade-off.
* :func:`run_probe_policies` — blind inheritance (Reno) vs restart-at-2
  (GIP [13]) vs probe-then-tune (TRIM) on the motivation scenario.
* :func:`run_alpha_sweep` — sensitivity of the smoothed-RTT gain α that
  drives gap detection and the probe deadline (the paper fixes 0.25).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core import kguide
from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.motivation import MotivationParams, run_motivation
from repro.experiments.scenarios import packets_per_second, path_base_rtt
from repro.net.packet import MSS_BYTES
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.sim.monitor import PeriodicSampler
from repro.tcp.base import TcpConfig
from repro.tcp.factory import make_connection
from repro.core.trim import TrimSource

__all__ = [
    "AblationExperiment",
    "AblationParams",
    "AlphaCase",
    "KSweepCase",
    "ProbePolicyCase",
    "run_alpha_sweep",
    "run_k_sweep",
    "run_probe_policies",
]


# ----------------------------------------------------------------------
# K sweep
# ----------------------------------------------------------------------

@dataclass
class KSweepCase:
    """One K multiple on an N-train star."""

    multiplier: float
    k: float
    goodput_bps: float
    utilization: float
    average_queue_pkts: float
    dropped_packets: int
    timeouts: int


def run_k_sweep(
    multipliers: Sequence[float] = (0.5, 0.75, 1.0, 1.5, 2.0),
    n_trains: int = 5,
    bandwidth_bps: float = 1e9,
    delay_s: float = 50e-6,
    buffer_pkts: int = 100,
    duration: float = 0.4,
) -> list[KSweepCase]:
    """Sweep TRIM's K around the Eq. 22 guideline on the simulator."""
    capacity = packets_per_second(bandwidth_bps)
    base_rtt = path_base_rtt([(delay_s, bandwidth_bps)] * 2)
    k_star = kguide.k_threshold(capacity, base_rtt)
    cases = []
    for mult in multipliers:
        k = max(base_rtt, k_star * mult)
        cases.append(
            _run_trim_star(
                k, capacity, base_rtt, n_trains, bandwidth_bps, delay_s,
                buffer_pkts, duration, mult,
            )
        )
    return cases


def _run_trim_star(
    k: float,
    capacity: float,
    base_rtt: float,
    n_trains: int,
    bandwidth_bps: float,
    delay_s: float,
    buffer_pkts: int,
    duration: float,
    mult: float,
) -> KSweepCase:
    sim = Simulator()
    star = build_star(
        sim, n_trains, bandwidth_bps=bandwidth_bps, delay_s=delay_s,
        buffer_pkts=buffer_pkts,
    )
    sources = []
    sinks = []
    config = TcpConfig(min_rto=1e-3, initial_rto=1e-3, initial_ssthresh=64)
    for i, server in enumerate(star.servers):
        source, sink = make_connection(
            "trim", sim, server, star.frontend, flow_id=i + 1,
            config=config, capacity_pps=capacity, base_rtt=base_rtt,
        )
        assert isinstance(source, TrimSource)
        source.k = k  # pin the swept threshold
        source.base_rtt = base_rtt  # keeps _update_k from overriding it
        source.send_message(10_000_000)
        sources.append(source)
        sinks.append(sink)

    measure_from = duration * 0.25
    baseline = {}

    def snapshot() -> None:
        for sink in sinks:
            baseline[sink.flow_id] = sink.delivered_segments

    sim.schedule_at(measure_from, snapshot)
    queue = PeriodicSampler(sim, 5e-4, lambda: star.bottleneck.backlog_pkts)
    queue.start(measure_from)
    sim.run(until=duration)

    window = duration - measure_from
    delivered = sum(
        s.delivered_segments - baseline.get(s.flow_id, 0) for s in sinks
    )
    goodput = delivered * MSS_BYTES * 8.0 / window
    return KSweepCase(
        multiplier=mult,
        k=k,
        goodput_bps=goodput,
        utilization=goodput / bandwidth_bps,
        average_queue_pkts=queue.series.mean(),
        dropped_packets=star.network.total_dropped(),
        timeouts=sum(s.stats.timeouts for s in sources),
    )


# ----------------------------------------------------------------------
# Probe policies
# ----------------------------------------------------------------------

@dataclass
class ProbePolicyCase:
    """One inheritance policy on the motivation scenario."""

    protocol: str
    timeouts: int
    dropped_packets: int
    mean_lpt_completion: float
    all_done_time: float


def run_probe_policies(
    protocols: Sequence[str] = ("reno", "gip", "trim"),
    quick: bool = True,
) -> list[ProbePolicyCase]:
    """Compare window-inheritance policies (Fig. 4/6 scenario)."""
    cases = []
    for protocol in protocols:
        params = (
            MotivationParams.quick(protocol)
            if quick
            else MotivationParams(protocol=protocol)
        )
        result = run_motivation(params)
        lpts = result.lpt_completion_times
        cases.append(
            ProbePolicyCase(
                protocol=protocol,
                timeouts=result.total_timeouts,
                dropped_packets=result.dropped_packets,
                mean_lpt_completion=sum(lpts) / len(lpts),
                all_done_time=result.all_done_time,
            )
        )
    return cases


# ----------------------------------------------------------------------
# α sweep
# ----------------------------------------------------------------------

@dataclass
class AlphaCase:
    """One smoothed-RTT gain on a fixed ON/OFF stream."""

    alpha: float
    probes_completed: int
    probe_deadline_misses: int
    timeouts: int
    stream_finish_time: float
    delivered_segments: int


def run_alpha_sweep(
    alphas: Sequence[float] = (0.1, 0.25, 0.5, 0.9),
    n_trains: int = 20,
    train_segments: int = 40,
    train_interval: float = 5e-3,
    bottleneck_bps: float = 500e6,
    background: bool = True,
) -> list[AlphaCase]:
    """Replay one ON/OFF stream under different smooth-RTT gains.

    With ``background`` (default) a loss-based long transfer shares the
    bottleneck so the RTT actually *varies* — the regime where the gain
    matters: smooth_RTT is both the gap threshold and the probe
    deadline, so a gain that over- or under-tracks the saw-tooth shows
    up as spurious probes, missed deadlines, or a slower stream.
    """
    cases = []
    for alpha in alphas:
        sim = Simulator()
        star = build_star(sim, 2, frontend_bandwidth_bps=bottleneck_bps)
        if background:
            bg, _ = make_connection(
                "reno", sim, star.servers[1], star.frontend, flow_id=9,
                config=TcpConfig(min_rto=0.01, initial_rto=0.01,
                                 initial_ssthresh=64),
            )
            bg.send_message(10_000_000)
        source, sink = make_connection(
            "trim", sim, star.servers[0], star.frontend, flow_id=1,
            config=TcpConfig(min_rto=0.01, initial_rto=0.01),
            capacity_pps=packets_per_second(bottleneck_bps),
            smooth_alpha=alpha,
        )
        assert isinstance(source, TrimSource)
        messages = []
        for i in range(n_trains):
            sim.schedule_at(
                train_interval * (i + 1),
                lambda: messages.append(source.send_message(train_segments)),
            )
        sim.run(until=2.0)
        finished = [m.finish_time for m in messages if m.finish_time is not None]
        cases.append(
            AlphaCase(
                alpha=alpha,
                probes_completed=source.probes_completed,
                probe_deadline_misses=source.probes_timed_out,
                timeouts=source.stats.timeouts,
                stream_finish_time=max(finished) if finished else float("nan"),
                delivered_segments=sink.next_expected,
            )
        )
    return cases


# ----------------------------------------------------------------------
# Registered experiment
# ----------------------------------------------------------------------

@dataclass
class AblationParams:
    """Knobs of the three ablation studies (no protocol sweep)."""

    preset: str = "paper"

    @classmethod
    def quick(cls, **overrides: Any) -> "AblationParams":
        overrides.setdefault("preset", "quick")
        return cls(**overrides)


@register
class AblationExperiment(Experiment):
    """The three TCP-TRIM design-choice studies as one experiment."""

    id = "ablations"
    title = "Ablations: K sweep, probe policies, alpha sweep"
    params_cls = AblationParams

    def points(self, params: AblationParams) -> list[Point]:
        return [Point("k_sweep"), Point("probe_policies"), Point("alpha_sweep")]

    def run_point(self, params: AblationParams, point: Point, seed: int) -> Any:
        if point.label == "k_sweep":
            return run_k_sweep()
        if point.label == "probe_policies":
            return run_probe_policies(quick=params.preset == "quick")
        return run_alpha_sweep()

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        return {p.label: r for p, r in zip(points, results)}

    def report(self, params: Any, payload: Any) -> None:
        MS = 1e3
        print("K sweep (5 TRIM trains, 1 Gbps star):")
        for case in payload["k_sweep"]:
            print(f"  K={case.multiplier:4.2f}x Eq.22 ({case.k * 1e6:6.0f}us)  "
                  f"util={case.utilization:6.1%}  AQL={case.average_queue_pkts:6.1f}  "
                  f"drops={case.dropped_packets}  to={case.timeouts}")
        print("Probe policies (motivation scenario):")
        for case in payload["probe_policies"]:
            print(f"  {case.protocol:5s}  to={case.timeouts:3d}  "
                  f"drops={case.dropped_packets:5d}  "
                  f"mean LPT={case.mean_lpt_completion * MS:7.1f}ms  "
                  f"done@{case.all_done_time:6.3f}s")
        print("Smooth-RTT gain sweep:")
        for case in payload["alpha_sweep"]:
            print(f"  alpha={case.alpha:4.2f}  probes={case.probes_completed:3d}  "
                  f"deadline_misses={case.probe_deadline_misses:3d}  "
                  f"to={case.timeouts}  done@{case.stream_finish_time * MS:7.1f}ms")
