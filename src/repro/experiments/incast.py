"""Incast goodput collapse — the phenomenon behind related work [13].

N synchronized senders each transfer one fixed block to a single
front-end (a storage-stripe read / partition-aggregation answer).  The
aggregate goodput of the *batch* — total bytes over the time the last
block lands — collapses for loss-based TCP once the fan-in exceeds what
the switch buffer absorbs: tail losses leave flows waiting out RTOs.
TCP-TRIM's delay back-off keeps buffer headroom, deferring the collapse.

This sweep is not a figure in the paper, but the paper's Fig. 5/7
impairments are incast in miniature; the sweep quantifies the same
mechanism the way the incast literature plots it.
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
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.base import Message, TcpSource

__all__ = [
    "IncastCase",
    "IncastExperiment",
    "IncastParams",
    "run_incast",
]


@dataclass
class IncastParams:
    """Synchronized block transfer parameters."""

    protocol: str = "reno"
    sender_counts: Sequence[int] = (2, 4, 8, 16, 32, 48)
    block_bytes: int = 64 * 1024  # the classic 64 KB stripe unit
    bandwidth_bps: float = 1e9
    delay_s: float = 50e-6
    buffer_pkts: int = 64
    min_rto: float = 0.2
    start_time: float = 0.01
    deadline: float = 10.0

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "IncastParams":
        defaults = dict(sender_counts=(2, 8, 24, 48))
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class IncastCase:
    """One fan-in point."""

    n_senders: int
    batch_completion: float  # start of burst to last block acked
    goodput_bps: float  # total payload over batch completion
    timeouts: int
    dropped_packets: int
    completed: int


def run_incast(params: IncastParams, n_senders: int) -> IncastCase:
    """One synchronized batch at the given fan-in."""
    if n_senders < 1:
        raise ValueError("need at least one sender")
    sim = Simulator()
    star = build_star(
        sim,
        n_senders,
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
    sources = connections.connect_many(star.servers, star.frontend)
    messages: list[Message] = []

    def start_all(senders: list[TcpSource]) -> None:
        # one event: per-sender ones would hold consecutive keys (DESIGN.md)
        for source in senders:
            messages.append(source.send_bytes(params.block_bytes))

    sim.schedule_at(params.start_time, start_all, sources)
    run_until(
        sim,
        lambda: len(messages) == n_senders
        and all(m.finish_time is not None for m in messages),
        params.deadline,
    )
    finished = [m.finish_time for m in messages if m.finish_time is not None]
    if not finished:
        raise RuntimeError("no block completed before the deadline")
    batch = max(finished) - params.start_time
    goodput = len(finished) * params.block_bytes * 8.0 / batch
    return IncastCase(
        n_senders=n_senders,
        batch_completion=batch,
        goodput_bps=goodput,
        timeouts=connections.total_timeouts,
        dropped_packets=star.network.total_dropped(),
        completed=len(finished),
    )


@register
class IncastExperiment(Experiment):
    """Incast collapse: one independent simulation per fan-in."""

    id = "incast"
    title = "Incast goodput vs fan-in"
    params_cls = IncastParams

    def points(self, params: IncastParams) -> list[Point]:
        return [Point(f"n{n}", {"n_senders": n}) for n in params.sender_counts]

    def run_point(self, params: IncastParams, point: Point, seed: int) -> Any:
        return run_incast(params, point.kwargs["n_senders"])

    def report(self, params: Any, payload: Any) -> None:
        MS = 1e3
        print(f"[{params.protocol}] incast goodput vs fan-in "
              f"({params.block_bytes // 1024} KB blocks):")
        for case in payload:
            print(f"  n={case.n_senders:3d}  "
                  f"goodput={case.goodput_bps / 1e6:7.1f} Mbps  "
                  f"batch={case.batch_completion * MS:8.1f} ms  "
                  f"timeouts={case.timeouts}")
