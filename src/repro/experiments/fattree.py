"""Fat-tree protocol comparison — Figure 12 and Table I.

Every server sends 1 MB over a persistent connection to a randomly
selected sink server, split into small objects (2–6 KB, sent from
0.1 s with ON/OFF gaps) and one big remainder sent at 0.5 s — exactly
the window-inheritance trap.  The paper sweeps pods 4–10 on 10 Gbps
links with 350 KB (≈245 packet) buffers and compares TCP, DCTCP, L2DCT,
and TCP-TRIM on mean/max completion time (Fig. 12) and on the total
number of RTO events (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.scenarios import (
    ConnectionSet,
    ecn_threshold_for,
    packets_per_second,
    path_base_rtt,
    run_until,
)
from repro.http.workload import gap_sampler
from repro.metrics.stats import summarize
from repro.net.packet import MSS_BYTES
from repro.net.topology import build_fat_tree
from repro.sim.kernel import Simulator
from repro.sim.randomness import seeded_rng
from repro.tcp.factory import default_config

__all__ = [
    "FatTreeExperiment",
    "FatTreeParams",
    "FatTreeResult",
    "run_fattree",
]


@dataclass
class FatTreeParams:
    """Fig. 12 / Table I parameters."""

    protocol: str = "reno"
    k: int = 4  # pod count
    #: pod counts swept by the registered experiment (``k`` is the
    #: single-run entry point's knob; the sweep overrides it per point)
    pod_counts: Sequence[int] = (4, 6, 8, 10)
    bandwidth_bps: float = 10e9
    delay_s: float = 10e-6
    buffer_pkts: int = 245  # 350 KB of 1460 B packets
    total_bytes: int = 1_000_000
    small_range_bytes: tuple[int, int] = (2_000, 6_000)
    n_small: int = 25
    small_start: float = 0.1
    big_start: float = 0.5
    min_rto: float = 0.05
    deadline: float = 5.0
    seed: int = 1

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "FatTreeParams":
        """Smaller transfers; same split structure and topology."""
        defaults = dict(
            pod_counts=(4, 6), total_bytes=300_000, n_small=10, deadline=3.0
        )
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class FatTreeResult:
    """Per-server completion statistics plus the Table I timeout count."""

    protocol: str
    k: int
    n_servers: int
    #: per-server completion measured from the first small object
    mean_completion: float
    max_completion: float
    #: completion of the big (window-inheriting) transfer alone — the
    #: discriminating part of the workload
    big_mean_completion: float
    big_max_completion: float
    completed_servers: int
    total_timeouts: int
    dropped_packets: int


def run_fattree(params: FatTreeParams) -> FatTreeResult:
    """Run one (protocol, pod-count) cell of Fig. 12 / Table I."""
    sim = Simulator()
    rng = seeded_rng(params.seed, params.k)
    topo = build_fat_tree(
        sim,
        params.k,
        bandwidth_bps=params.bandwidth_bps,
        delay_s=params.delay_s,
        buffer_pkts=params.buffer_pkts,
        ecn_threshold_pkts=ecn_threshold_for(params.protocol, params.bandwidth_bps),
    )
    config = default_config(
        params.protocol, min_rto=params.min_rto, initial_rto=params.min_rto
    )
    connections = ConnectionSet(
        sim,
        params.protocol,
        config=config,
        capacity_pps=packets_per_second(params.bandwidth_bps),
        base_rtt=path_base_rtt(
            [(params.delay_s, params.bandwidth_bps)] * 6  # inter-pod path
        ),
    )
    gaps = gap_sampler()
    n_hosts = len(topo.hosts)

    # Random sink per server: a permutation shifted by a random offset
    # guarantees sink != self while keeping the many-to-one collisions
    # random (several servers may pick the same edge switch).
    targets = rng.permutation(n_hosts)
    for i in range(n_hosts):
        if targets[i] == i:  # swap self-assignments with a neighbour
            j = (i + 1) % n_hosts
            targets[i], targets[j] = targets[j], targets[i]

    big_messages = []
    lo, hi = params.small_range_bytes
    for i, host in enumerate(topo.hosts):
        src, _sink = connections.connect(host, topo.hosts[int(targets[i])])
        small_sizes = rng.integers(lo, hi + 1, params.n_small)
        small_total = int(small_sizes.sum())
        big_bytes = max(MSS_BYTES, params.total_bytes - small_total)
        t = params.small_start
        for size in small_sizes:
            sim.schedule_at(t, lambda s=src, b=int(size): s.send_bytes(b))
            t += float(gaps.sample(rng, 1)[0])
        sim.schedule_at(
            params.big_start,
            lambda s=src, b=big_bytes: big_messages.append(s.send_bytes(b)),
        )

    run_until(
        sim,
        lambda: len(big_messages) == n_hosts
        and all(m.finish_time is not None for m in big_messages),
        params.deadline,
    )

    finished = [m for m in big_messages if m.finish_time is not None]
    if not finished:
        raise RuntimeError("no server finished before the deadline")
    per_server = [m.finish_time - params.small_start for m in finished]
    big_only = [m.completion_time for m in finished]
    stats = summarize(per_server)
    big_stats = summarize(big_only)
    return FatTreeResult(
        protocol=params.protocol,
        k=params.k,
        n_servers=n_hosts,
        mean_completion=stats.mean,
        max_completion=stats.maximum,
        big_mean_completion=big_stats.mean,
        big_max_completion=big_stats.maximum,
        completed_servers=stats.count,
        total_timeouts=connections.total_timeouts,
        dropped_packets=topo.network.total_dropped(),
    )


@register
class FatTreeExperiment(Experiment):
    """Fig. 12 / Table I: one fat-tree run per pod count."""

    id = "fig12"
    aliases = ("table1",)
    title = "Fig. 12 / Table I fat-tree comparison"
    params_cls = FatTreeParams

    def points(self, params: FatTreeParams) -> list[Point]:
        return [Point(f"k{k}", {"k": k}) for k in params.pod_counts]

    def run_point(self, params: FatTreeParams, point: Point, seed: int) -> Any:
        return run_fattree(replace(params, k=point.kwargs["k"], seed=seed))

    def report(self, params: Any, payload: Any) -> None:
        MS = 1e3
        print(f"[{params.protocol}] Fig.12 mean/max completion (ms) "
              f"and Table I timeouts:")
        for r in payload:
            print(f"  pods={r.k:2d}  servers={r.n_servers:3d}  "
                  f"big={r.big_mean_completion * MS:7.1f}"
                  f"/{r.big_max_completion * MS:7.1f}ms  "
                  f"timeouts={r.total_timeouts:5d}")
