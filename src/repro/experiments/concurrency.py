"""Concurrency impairment — Figures 5 and 7.

Zero, one, or two long trains run from 0.1 s; a growing number of other
servers each burst a 10-packet SPT at 0.3 s.  With drop-tail buffers the
LPT(s) keep the queue near full, so the synchronized SPT burst loses
packets and serializes behind 200 ms RTOs (Fig. 5).  TCP-TRIM's delay
control leaves most of the buffer free and ACTs stay at a few
milliseconds (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.scenarios import (
    ConnectionSet,
    ecn_threshold_for,
    run_until,
)
from repro.http.apps import LongTrainSender, burst_at
from repro.metrics.stats import completion_times, summarize
from repro.net.topology import build_star
from repro.sim.kernel import Simulator

__all__ = [
    "ConcurrencyCase",
    "ConcurrencyExperiment",
    "ConcurrencyParams",
    "run_concurrency",
]


@dataclass
class ConcurrencyParams:
    """Parameters of the Section II.B.2 scenario (paper defaults)."""

    protocol: str = "reno"
    n_lpts: int = 2
    spt_counts: Sequence[int] = (2, 4, 6, 8, 10, 12)
    spt_segments: int = 10
    lpt_start: float = 0.1
    spt_time: float = 0.3
    bandwidth_bps: float = 1e9
    delay_s: float = 50e-6
    buffer_pkts: int = 100
    min_rto: float = 0.2
    deadline: float = 3.0

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "ConcurrencyParams":
        defaults = dict(spt_counts=(2, 6, 10), deadline=2.0)
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class ConcurrencyCase:
    """One sweep point: statistics of the SPT completion times."""

    n_spts: int
    n_lpts: int
    act: float
    min_ct: float
    max_ct: float
    completed: int
    spt_timeouts: int
    dropped_packets: int


def run_concurrency(
    params: ConcurrencyParams, n_spts: int
) -> ConcurrencyCase:
    """One simulation: ``n_spts`` SPT servers plus the configured LPTs."""
    if n_spts < 1:
        raise ValueError("need at least one SPT server")
    sim = Simulator()
    star = build_star(
        sim,
        params.n_lpts + n_spts,
        bandwidth_bps=params.bandwidth_bps,
        delay_s=params.delay_s,
        buffer_pkts=params.buffer_pkts,
        ecn_threshold_pkts=ecn_threshold_for(params.protocol, params.bandwidth_bps),
    )
    connections = ConnectionSet(
        sim,
        params.protocol,
        params.min_rto,
        star.network.path(star.servers[0], star.frontend),
    )
    lpt_hosts = star.servers[: params.n_lpts]
    spt_hosts = star.servers[params.n_lpts :]
    lpt_sources = connections.connect_many(lpt_hosts, star.frontend, warm=True)
    spt_sources = connections.connect_many(spt_hosts, star.frontend)

    for source in lpt_sources:
        LongTrainSender(sim, source, params.lpt_start).start()
    spt_messages = burst_at(sim, spt_sources, params.spt_time, params.spt_segments)

    run_until(
        sim,
        lambda: len(spt_messages) == n_spts
        and all(m.finish_time is not None for m in spt_messages),
        params.deadline,
    )

    times = completion_times(spt_messages)
    if not times:
        raise RuntimeError(
            f"no SPT completed before the {params.deadline}s deadline; "
            "raise ConcurrencyParams.deadline"
        )
    stats = summarize(times)
    return ConcurrencyCase(
        n_spts=n_spts,
        n_lpts=params.n_lpts,
        act=stats.mean,
        min_ct=stats.minimum,
        max_ct=stats.maximum,
        completed=stats.count,
        spt_timeouts=sum(s.stats.timeouts for s in spt_sources),
        dropped_packets=star.network.total_dropped(),
    )


@register
class ConcurrencyExperiment(Experiment):
    """Figs. 5 and 7: one independent simulation per SPT count."""

    id = "fig5"
    aliases = ("fig7",)
    title = "Fig. 5/7 ACT vs number of concurrent SPT servers"
    params_cls = ConcurrencyParams

    def points(self, params: ConcurrencyParams) -> list[Point]:
        return [Point(f"spt{n}", {"n_spts": n}) for n in params.spt_counts]

    def run_point(self, params: ConcurrencyParams, point: Point, seed: int) -> Any:
        return run_concurrency(params, point.kwargs["n_spts"])

    def report(self, params: Any, payload: Any) -> None:
        MS = 1e3
        print(f"[{params.protocol}] ACT of SPTs with {params.n_lpts} LPTs:")
        for case in payload:
            print(f"  n_spt={case.n_spts:3d}  ACT={case.act * MS:9.2f}ms  "
                  f"min={case.min_ct * MS:8.2f}ms  max={case.max_ct * MS:9.2f}ms  "
                  f"spt_timeouts={case.spt_timeouts}")
