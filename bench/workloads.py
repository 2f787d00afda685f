"""The four frozen workloads.

Every field of each experiment's params dataclass is written out here
(only ``protocol`` varies, over :data:`PROTOCOLS`), never taken from a
``quick()``/``paper()`` preset, so editing a preset or a default under
``src/`` cannot silently change the measured work.  :func:`build_tasks`
refuses a params class that has grown a field this file does not pin,
and :func:`workload_digest` fingerprints the explicit params and the way
they are driven (experiment, pool size) so a test can pin the work itself.

The names are fixed: later issues refer to them.  This module imports
``repro`` only inside functions, so listing the benchmark does not need
the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = [
    "PROTOCOLS",
    "WORKLOADS",
    "Workload",
    "build_tasks",
    "by_name",
    "workload_digest",
]

#: every workload runs the baseline and the paper's contribution on
#: matched per-point seeds, as the figures do.
PROTOCOLS = ("reno", "trim")

#: (operations offered, operations not completed) of one task's payload.
Ops = Callable[[Any, Any], "tuple[int, int]"]
#: a few simulated-time results that identify the work at a glance.
Key = Callable[[Any, Any], "dict[str, float]"]


def _fanin_ops(params: Any, cases: Any) -> tuple[int, int]:
    expected = sum(c.expected for c in cases)
    return expected, expected - sum(c.completed for c in cases)


def _fanin_key(params: Any, cases: Any) -> dict[str, float]:
    return {
        "act_ms": cases[-1].act * 1e3,
        "timeouts": sum(c.timeouts for c in cases),
    }


def _fattree_ops(params: Any, results: Any) -> tuple[int, int]:
    servers = sum(r.n_servers for r in results)
    return servers, servers - sum(r.completed_servers for r in results)


def _fattree_key(params: Any, results: Any) -> dict[str, float]:
    return {
        "big_mean_ms": results[-1].big_mean_completion * 1e3,
        "timeouts": sum(r.total_timeouts for r in results),
        "drops": sum(r.dropped_packets for r in results),
    }


def _openloop_ops(params: Any, cases: Any) -> tuple[int, int]:
    offered = sum(c.offered for c in cases)
    return offered, offered - sum(c.completed for c in cases)


def _openloop_key(params: Any, cases: Any) -> dict[str, float]:
    return {
        "p99_ms": (cases[-1].latency_p99 or 0.0) * 1e3,
        "conns_opened": sum(c.conns_opened for c in cases),
        "timeouts": sum(c.timeouts for c in cases),
    }


def _incast_ops(params: Any, cases: Any) -> tuple[int, int]:
    # Offered comes from the params, not the payload: a failed point is
    # dropped by reduce and must count as its blocks not completing.
    offered = sum(params.sender_counts)
    return offered, offered - sum(c.completed for c in cases)


def _incast_key(params: Any, cases: Any) -> dict[str, float]:
    return {
        "goodput_mbps": cases[-1].goodput_bps / 1e6,
        "timeouts": sum(c.timeouts for c in cases),
    }


@dataclass(frozen=True)
class Workload:
    """One frozen set of inputs.

    ``pool_jobs is None`` runs every point inline through
    ``SweepRunner``; a number makes it the runner workload: each
    iteration is a cold pass on a process pool of that many workers with
    a fresh cache and journal, a warm pass (all cache hits) and a resume
    pass (journal replay).
    """

    name: str
    why: str
    experiment: str
    params: Mapping[str, Any]
    ops: Ops
    key: Key
    pool_jobs: Optional[int] = None


WORKLOADS: Sequence[Workload] = (
    Workload(
        name="fanin_tree",
        why="Fig. 8 two-level fan-in tree, 12 points: sim/net/tcp time is "
        "balanced and the Reno arm hits RTOs, so timers and recovery run "
        "beside per-packet events.",
        experiment="fig8",
        params=dict(
            switch_counts=(2, 4, 6),
            servers_per_switch=12,
            lpts_per_switch=2,
            distribution="uniform",
            spt_window=0.3,
            spt_window_start=0.1,
            edge_bps=1e8,
            edge_delay_s=20e-6,
            frontend_bps=1e9,
            frontend_delay_s=10e-6,
            buffer_pkts=100,
            min_rto=0.02,
            repeats=2,
            deadline=3.0,
            seed=1,
        ),
        ops=_fanin_ops,
        key=_fanin_key,
    ),
    Workload(
        name="fattree_forward",
        why="Fig. 12 fat-tree with ECMP, 6 hops per packet: forwarding-bound, "
        "so a kernel or link change must show here and a TCP change is "
        "predicted not to.",
        experiment="fig12",
        params=dict(
            k=4,
            pod_counts=(4, 6, 8),
            bandwidth_bps=10e9,
            delay_s=10e-6,
            buffer_pkts=245,
            total_bytes=300_000,
            small_range_bytes=(2_000, 6_000),
            n_small=10,
            small_start=0.1,
            big_start=0.5,
            min_rto=0.05,
            deadline=3.0,
            seed=1,
        ),
        ops=_fattree_ops,
        key=_fattree_key,
    ),
    Workload(
        name="openloop_sessions",
        why="Open-loop Poisson sessions over keep-alive pools: thousands of "
        "short exchanges with connection churn, the only workload where "
        "http and schedule compilation do real work.",
        experiment="openloop",
        params=dict(
            arrivals="poisson:rate=240",
            load_factors=(1.0, 2.0),
            horizon=1.0,
            drain=1.0,
            n_servers=8,
            mean_requests=2.0,
            think_time_s=0.05,
            fanout_aggregators=1,
            fanout_leaves=16,
            idle_timeout_s=0.01,
            max_reuse=64,
            bandwidth_bps=1e9,
            delay_s=50e-6,
            buffer_pkts=100,
            min_rto=0.01,
            replay=None,
        ),
        ops=_openloop_ops,
        key=_openloop_key,
    ),
    Workload(
        name="sweep_points",
        why="192 tiny incast points through a process pool with a fresh cache "
        "and fsynced journal (cold, warm, resume passes): the only workload "
        "where repro.runner does real work.",
        experiment="incast",
        params=dict(
            sender_counts=tuple(range(2, 98)),
            block_bytes=16 * 1024,
            bandwidth_bps=1e9,
            delay_s=50e-6,
            buffer_pkts=64,
            min_rto=0.01,
            start_time=0.01,
            deadline=10.0,
        ),
        ops=_incast_ops,
        key=_incast_key,
        # One worker, not nproc: with both vCPUs of the shared build host
        # busy, a neighbour's burst slowed whole runs by 35-80 % and the
        # spread over ten seeds (22-30 %) exceeded any allowed bound.
        pool_jobs=1,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(w.name for w in WORKLOADS)
    raise KeyError(f"unknown workload {name!r}; known: {known}")


def build_tasks(workload: Workload) -> list[tuple[Any, Any]]:
    """``(experiment, params)`` per protocol, through the registry.

    Raises :class:`ValueError` when the params class has a field this
    file does not pin (or the reverse): that is a change of the
    benchmark and has to be made here, on purpose.
    """
    from repro.experiments import registry

    experiment = registry.get(workload.experiment)
    cls = experiment.params_cls
    declared = {f.name for f in dataclasses.fields(cls)}
    pinned = set(workload.params) | {"protocol"}
    if declared != pinned:
        raise ValueError(
            f"workload {workload.name!r} does not pin {cls.__name__} exactly: "
            f"unpinned {sorted(declared - pinned)}, "
            f"unknown {sorted(pinned - declared)}"
        )
    return [
        (experiment, cls(protocol=protocol, **workload.params))
        for protocol in PROTOCOLS
    ]


def workload_digest(workload: Workload, tasks: Sequence[tuple[Any, Any]]) -> str:
    """sha256 over everything that decides the measured work: the
    experiment, the pool size, and the ``repr`` of every task's explicit
    params (one task per protocol, so :data:`PROTOCOLS` is covered)."""
    lines = [f"experiment={workload.experiment}", f"pool_jobs={workload.pool_jobs}"]
    lines += [repr(params) for _experiment, params in tasks]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
