"""Large-scale HTTP concurrency — Figure 8.

The Fig. 8(a) topology: edge switches with 42 servers each behind one
fabric switch and a single front-end.  Per switch, two servers run long
trains for the whole test; every other server sends one SPT whose size
follows the Fig. 2(a) distribution, at a start time drawn uniformly or
exponentially within a 0.5 s window.  RTO is 20 ms.  The paper sweeps
5–25 switches (210–1050 servers) and reports the ACT of SPTs: TCP-TRIM
cuts TCP's ACT by up to 80%, still ≥50% beyond 840 servers.

Full paper scale is expensive in pure Python, so the ``quick`` preset
shrinks the fan-in while keeping the 2-LPTs-per-switch structure and the
SPT size distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.scenarios import (
    ConnectionSet,
    ecn_threshold_for,
    run_until,
)
from repro.http.apps import LongTrainSender
from repro.http.workload import pt_size_sampler, segments_for_bytes
from repro.metrics.stats import completion_times, summarize
from repro.net.topology import build_two_level_tree
from repro.sim.kernel import Simulator
from repro.sim.randomness import Pcg64Generator, seeded_rng

__all__ = [
    "LargeScaleCase",
    "LargeScaleExperiment",
    "LargeScaleParams",
    "run_large_scale",
]


@dataclass
class LargeScaleParams:
    """Fig. 8 parameters."""

    protocol: str = "reno"
    switch_counts: Sequence[int] = (5, 10, 15, 20, 25)
    servers_per_switch: int = 42
    lpts_per_switch: int = 2
    distribution: str = "uniform"  # or "exponential"
    spt_window: float = 0.5
    spt_window_start: float = 0.1
    edge_bps: float = 1e9
    edge_delay_s: float = 20e-6
    frontend_bps: float = 10e9
    frontend_delay_s: float = 10e-6
    buffer_pkts: int = 100
    min_rto: float = 0.02  # the paper sets a 20 ms RTO here
    repeats: int = 3
    deadline: float = 4.0
    seed: int = 1

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "LargeScaleParams":
        """Shrunk fan-in: 12 servers/switch at 10× slower links."""
        defaults = dict(
            switch_counts=(2, 4, 6),
            servers_per_switch=12,
            edge_bps=1e8,
            frontend_bps=1e9,
            spt_window=0.3,
            repeats=2,
            deadline=3.0,
        )
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class LargeScaleCase:
    """One sweep point, averaged over repeats."""

    n_switches: int
    n_servers: int
    act: float
    max_ct: float
    completed: int
    expected: int
    timeouts: int


def run_large_scale(
    params: LargeScaleParams, n_switches: int, repeat_index: int = 0
) -> tuple[list[float], int, int]:
    """One run: returns (SPT completion times, SPT count, timeouts)."""
    sim = Simulator()
    rng = seeded_rng(params.seed, n_switches, repeat_index)
    topo = build_two_level_tree(
        sim,
        n_switches,
        servers_per_switch=params.servers_per_switch,
        edge_bandwidth_bps=params.edge_bps,
        edge_delay_s=params.edge_delay_s,
        frontend_bandwidth_bps=params.frontend_bps,
        frontend_delay_s=params.frontend_delay_s,
        buffer_pkts=params.buffer_pkts,
        ecn_threshold_pkts=ecn_threshold_for(params.protocol, params.edge_bps),
    )
    connections = ConnectionSet(
        sim,
        params.protocol,
        params.min_rto,
        topo.network.path(topo.servers[0], topo.frontend),
    )
    sizes = pt_size_sampler()
    spt_messages = []
    n_spts = 0
    for group in topo.server_groups:
        lpt_hosts = group[: params.lpts_per_switch]
        spt_hosts = group[params.lpts_per_switch :]
        for host in lpt_hosts:
            src, _sink = connections.connect(host, topo.frontend, warm=True)
            LongTrainSender(sim, src, params.spt_window_start).start()
        for host in spt_hosts:
            src, _sink = connections.connect(host, topo.frontend)
            start = params.spt_window_start + _draw_offset(
                rng, params.distribution, params.spt_window
            )
            segments = segments_for_bytes(int(sizes.sample(rng, 1)[0]))
            sim.schedule_at(
                start,
                lambda s=src, n=segments: spt_messages.append(s.send_message(n)),
            )
            n_spts += 1

    run_until(
        sim,
        lambda: len(spt_messages) == n_spts
        and all(m.finish_time is not None for m in spt_messages),
        params.deadline,
    )
    return completion_times(spt_messages), n_spts, connections.total_timeouts


def _draw_offset(rng: Pcg64Generator, distribution: str, window: float) -> float:
    """An SPT start offset within [0, window] per the configured law."""
    if distribution == "uniform":
        return rng.uniform(0.0, window)
    if distribution == "exponential":
        # Mean window/3 gives most arrivals early, truncated to the window.
        return min(rng.exponential(window / 3.0), window)
    raise ValueError(f"unknown distribution {distribution!r}")


@register
class LargeScaleExperiment(Experiment):
    """Fig. 8: one point per (switch count, repeat) pair.

    The repeats of one sweep point are independent simulations, so they
    fan out as separate points; :meth:`reduce` regroups them into one
    :class:`LargeScaleCase` per switch count.
    """

    id = "fig8"
    title = "Fig. 8 large-scale ACT of SPTs"
    params_cls = LargeScaleParams

    def points(self, params: LargeScaleParams) -> list[Point]:
        return [
            Point(f"sw{n}-r{r}", {"n_switches": n, "repeat": r})
            for n in params.switch_counts
            for r in range(params.repeats)
        ]

    def run_point(self, params: LargeScaleParams, point: Point, seed: int) -> Any:
        times, n_spts, timeouts = run_large_scale(
            replace(params, seed=seed),
            point.kwargs["n_switches"],
            point.kwargs["repeat"],
        )
        return {"times": times, "n_spts": n_spts, "timeouts": timeouts}

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        cases = []
        for n_switches in params.switch_counts:
            all_times: list[float] = []
            expected = 0
            timeouts = 0
            for point, result in zip(points, results):
                if result is None or point.kwargs["n_switches"] != n_switches:
                    continue
                all_times.extend(result["times"])
                expected += result["n_spts"]
                timeouts += result["timeouts"]
            if not expected:
                continue
            stats = summarize(all_times)
            cases.append(
                LargeScaleCase(
                    n_switches=n_switches,
                    n_servers=n_switches * params.servers_per_switch,
                    act=stats.mean,
                    max_ct=stats.maximum,
                    completed=stats.count,
                    expected=expected,
                    timeouts=timeouts,
                )
            )
        return cases

    def report(self, params: Any, payload: Any) -> None:
        MS = 1e3
        print(f"[{params.protocol}] large-scale ACT of SPTs "
              f"({params.distribution}):")
        for case in payload:
            print(f"  servers={case.n_servers:5d}  ACT={case.act * MS:9.2f}ms  "
                  f"max={case.max_ct * MS:9.2f}ms  "
                  f"completed={case.completed}/{case.expected}  "
                  f"timeouts={case.timeouts}")
