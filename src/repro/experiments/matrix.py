"""Competitor-protocol matrix: head-to-head scenario grids.

The ROADMAP's competitor matrix: every protocol in the registry —
TCP-TRIM, Tiny Buffer TCP, T-RACKs, and the classic zoo — measured
under the same scenario grid so the paper's claims can be certified
against the modern datacenter alternatives, not just legacy Reno.

One sweep *point* is one cell of the grid::

    scenario ∈ {incast, coexist, load}   (what traffic runs)
    buffer   ∈ {shallow, deep}           (switch egress in packets)
    qdisc    ∈ {droptail, fairq}         (bottleneck discipline)

and the CLI's ``--protocols`` list supplies the protocol axis (one
sweep task per protocol, exactly like every other experiment).  The
scenarios:

* ``incast`` — synchronized block-transfer waves from every sender
  (the classic fan-in collapse); measures per-wave flow completion
  times, batch goodput, and loss-recovery counters.
* ``coexist`` — half the senders run the protocol under test, half run
  a fixed partner (TRIM by default — head-to-head with the paper's
  contribution; ``baseline`` overrides it), all streaming
  concurrently; measures each side's goodput share and Jain fairness.
* ``load`` — an open-loop-style offered load: every sender submits a
  Poisson train of blocks at a fixed offered rate regardless of
  completions; measures FCT percentiles under sustained overload.

The ``fairq`` cells swap the bottleneck's egress queue for the
switch-assisted :class:`~repro.net.queues.FairQueue` through the
link's ``queue`` property (the sanctioned mid-run swap surface), so
per-flow fair-share feedback and longest-queue drop apply exactly
where the fan-in collides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.scenarios import (
    ecn_threshold_for,
    packets_per_second,
    path_base_rtt,
    run_until,
)
from repro.net.packet import MSS_BYTES
from repro.net.queues import FairQueue
from repro.net.topology import StarTopology, build_star
from repro.sim.kernel import Simulator
from repro.sim.randomness import seeded_rng
from repro.tcp.base import Message, TcpSink, TcpSource
from repro.tcp.factory import default_config, make_connection

__all__ = [
    "MatrixCase",
    "MatrixExperiment",
    "MatrixParams",
    "run_matrix_point",
]

SCENARIOS = ("incast", "coexist", "load")
QDISCS = ("droptail", "fairq")


@dataclass
class MatrixParams:
    """One protocol's trip through the scenario grid."""

    protocol: str = "trim"
    #: coexistence partner; "" = auto (TRIM, or Reno when the protocol
    #: under test *is* TRIM — the grid is always a head-to-head).
    baseline: str = ""
    scenarios: Sequence[str] = SCENARIOS
    #: switch egress buffers in packets: shallow vs. deep cells.
    buffers: Sequence[int] = (8, 64)
    qdiscs: Sequence[str] = QDISCS
    n_senders: int = 8
    block_bytes: int = 64 * 1024
    bandwidth_bps: float = 1e9
    delay_s: float = 50e-6
    min_rto: float = 0.01
    start_time: float = 0.005
    deadline: float = 10.0
    #: synchronized waves per incast cell.
    waves: int = 2
    #: offered blocks per sender in the load cell.
    load_blocks: int = 6
    #: offered arrival rate per sender (blocks/second) in the load cell.
    load_rate: float = 150.0

    @classmethod
    def quick(cls, protocol: str = "trim", **overrides: Any) -> "MatrixParams":
        defaults: dict[str, Any] = dict(
            scenarios=("incast", "coexist"),
            buffers=(8, 64),
            n_senders=6,
            waves=1,
            load_blocks=3,
        )
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)

    def partner(self) -> str:
        """The coexistence partner protocol for this grid."""
        if self.baseline:
            return self.baseline
        return "reno" if self.protocol == "trim" else "trim"


@dataclass
class MatrixCase:
    """One grid cell's measurements."""

    scenario: str
    buffer_pkts: int
    qdisc: str
    #: flow-completion times of every finished block, seconds.
    fct_mean: float
    fct_p99: float
    completed: int
    offered: int
    goodput_bps: float
    retransmits: int
    timeouts: int
    dropped_packets: int
    marked_packets: int
    #: coexist only: protocol-under-test share of total goodput (0..1)
    #: and Jain's fairness index over per-flow goodput; NaN elsewhere.
    share: float = float("nan")
    jain: float = float("nan")


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def _jain(values: Sequence[float]) -> float:
    """Jain's fairness index; 1.0 means perfectly equal shares."""
    if not values:
        return float("nan")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares <= 0:
        return float("nan")
    return (total * total) / (len(values) * squares)


def _install_qdisc(star: StarTopology, qdisc: str, buffer_pkts: int) -> None:
    """Apply the grid cell's bottleneck discipline."""
    if qdisc == "droptail":
        return
    if qdisc != "fairq":
        raise ValueError(f"unknown qdisc {qdisc!r} (use droptail or fairq)")
    link = star.bottleneck
    link.queue = FairQueue(buffer_pkts, name=link.name)


def _connect(
    sim: Simulator,
    params: MatrixParams,
    protocol: str,
    star: StarTopology,
    servers: Sequence[Any],
    first_flow_id: int,
) -> list[TcpSource]:
    """One connection per server towards the front-end, with explicit
    flow ids so mixed-protocol cells never collide on the demux key."""
    config = default_config(
        protocol, min_rto=params.min_rto, initial_rto=params.min_rto
    )
    extras: dict[str, Any] = {}
    if protocol == "trim":
        extras = dict(
            capacity_pps=packets_per_second(params.bandwidth_bps),
            base_rtt=path_base_rtt(
                [(params.delay_s, params.bandwidth_bps)] * 2
            ),
        )
    return [
        make_connection(
            protocol,
            sim,
            server,
            star.frontend,
            flow_id=first_flow_id + offset,
            config=config,
            **extras,
        )[0]
        for offset, server in enumerate(servers)
    ]


def _totals(star: StarTopology, sources: Sequence[TcpSource]) -> dict[str, int]:
    return {
        "retransmits": sum(s.stats.retransmits for s in sources),
        "timeouts": sum(s.stats.timeouts for s in sources),
        "dropped": star.network.total_dropped(),
        "marked": sum(link.queue.stats.marked for link in star.network.links),
    }


def _case_from_messages(
    scenario: str,
    buffer_pkts: int,
    qdisc: str,
    params: MatrixParams,
    star: StarTopology,
    sources: Sequence[TcpSource],
    messages: Sequence[Message],
    elapsed: float,
) -> MatrixCase:
    fcts = [m.completion_time for m in messages if m.finish_time is not None]
    completed = len(fcts)
    goodput = (
        completed * params.block_bytes * 8.0 / elapsed if elapsed > 0 else 0.0
    )
    counters = _totals(star, sources)
    return MatrixCase(
        scenario=scenario,
        buffer_pkts=buffer_pkts,
        qdisc=qdisc,
        fct_mean=sum(fcts) / completed if completed else float("nan"),
        fct_p99=_percentile(fcts, 0.99) if completed else float("nan"),
        completed=completed,
        offered=len(messages),
        goodput_bps=goodput,
        retransmits=counters["retransmits"],
        timeouts=counters["timeouts"],
        dropped_packets=counters["dropped"],
        marked_packets=counters["marked"],
    )


# ----------------------------------------------------------------------
# Scenario bodies
# ----------------------------------------------------------------------
def _run_incast(
    params: MatrixParams, buffer_pkts: int, qdisc: str, seed: int
) -> MatrixCase:
    sim = Simulator()
    star = build_star(
        sim,
        params.n_senders,
        bandwidth_bps=params.bandwidth_bps,
        delay_s=params.delay_s,
        buffer_pkts=buffer_pkts,
        ecn_threshold_pkts=ecn_threshold_for(
            params.protocol, params.bandwidth_bps
        ),
    )
    _install_qdisc(star, qdisc, buffer_pkts)
    sources = _connect(sim, params, params.protocol, star, star.servers, 0)
    segments = max(1, -(-params.block_bytes // MSS_BYTES))
    messages: list[Message] = []
    #: wave k starts only after wave k-1 fully lands (synchronized
    #: barriers, as the storage-stripe pattern behaves).
    wave_gap = params.deadline / max(1, params.waves)

    def start_wave(senders: list[TcpSource]) -> None:
        # one event: per-sender ones would hold consecutive keys (DESIGN.md)
        for source in senders:
            messages.append(source.send_message(segments))

    for k in range(params.waves):
        sim.schedule_at(params.start_time + k * wave_gap, start_wave, sources)
    expected = params.waves * len(sources)
    run_until(
        sim,
        lambda: len(messages) == expected
        and all(m.finish_time is not None for m in messages),
        params.deadline,
    )
    finished = [m.finish_time for m in messages if m.finish_time is not None]
    elapsed = (max(finished) - params.start_time) if finished else 0.0
    return _case_from_messages(
        "incast", buffer_pkts, qdisc, params, star, sources, messages, elapsed
    )


def _run_coexist(
    params: MatrixParams, buffer_pkts: int, qdisc: str, seed: int
) -> MatrixCase:
    partner = params.partner()
    sim = Simulator()
    star = build_star(
        sim,
        params.n_senders,
        bandwidth_bps=params.bandwidth_bps,
        delay_s=params.delay_s,
        buffer_pkts=buffer_pkts,
        ecn_threshold_pkts=ecn_threshold_for(
            params.protocol, params.bandwidth_bps
        ),
    )
    _install_qdisc(star, qdisc, buffer_pkts)
    half = max(1, params.n_senders // 2)
    mine = _connect(sim, params, params.protocol, star, star.servers[:half], 0)
    theirs = _connect(
        sim, params, partner, star, star.servers[half:], half
    )
    segments = max(1, -(-params.block_bytes // MSS_BYTES))
    messages: list[Message] = []
    #: every sender streams back-to-back blocks until the horizon: when
    #: a block completes, the next is queued immediately (long-lived
    #: persistent connections competing for the bottleneck).
    horizon = params.deadline / 2.0

    def stream(source: TcpSource) -> None:
        def next_block(_done: Message) -> None:
            if sim.now < horizon:
                messages.append(
                    source.send_message(segments, on_complete=next_block)
                )

        messages.append(source.send_message(segments, on_complete=next_block))

    for source in mine + theirs:
        sim.schedule_at(params.start_time, lambda s=source: stream(s))
    sim.run(until=params.deadline)
    per_flow = [
        sink.delivered_bytes * 8.0 / (params.deadline - params.start_time)
        for sink in _sinks_of(star, len(mine) + len(theirs))
    ]
    my_goodput = sum(per_flow[: len(mine)])
    total = sum(per_flow)
    case = _case_from_messages(
        "coexist",
        buffer_pkts,
        qdisc,
        params,
        star,
        mine + theirs,
        messages,
        params.deadline - params.start_time,
    )
    case.share = my_goodput / total if total > 0 else float("nan")
    case.jain = _jain(per_flow)
    return case


def _sinks_of(star: StarTopology, n_flows: int) -> list[TcpSink]:
    """The front-end's sinks for flows 0..n-1, in flow order."""
    sinks = []
    for flow_id in range(n_flows):
        agent = star.frontend.agent_for(flow_id)
        if not isinstance(agent, TcpSink):  # pragma: no cover - wiring bug
            raise TypeError(f"flow {flow_id} is not terminated by a sink")
        sinks.append(agent)
    return sinks


def _run_load(
    params: MatrixParams, buffer_pkts: int, qdisc: str, seed: int
) -> MatrixCase:
    sim = Simulator()
    star = build_star(
        sim,
        params.n_senders,
        bandwidth_bps=params.bandwidth_bps,
        delay_s=params.delay_s,
        buffer_pkts=buffer_pkts,
        ecn_threshold_pkts=ecn_threshold_for(
            params.protocol, params.bandwidth_bps
        ),
    )
    _install_qdisc(star, qdisc, buffer_pkts)
    sources = _connect(sim, params, params.protocol, star, star.servers, 0)
    segments = max(1, -(-params.block_bytes // MSS_BYTES))
    rng = seeded_rng(seed)
    messages: list[Message] = []
    #: open-loop offered load: block submission times are drawn up
    #: front from a Poisson process and scheduled unconditionally —
    #: completions never gate arrivals.
    for source in sources:
        t = params.start_time
        for _ in range(params.load_blocks):
            t += float(rng.exponential(1.0 / params.load_rate))
            sim.schedule_at(
                t, lambda s=source: messages.append(s.send_message(segments))
            )
    expected = params.load_blocks * len(sources)
    run_until(
        sim,
        lambda: len(messages) == expected
        and all(m.finish_time is not None for m in messages),
        params.deadline,
    )
    finished = [m.finish_time for m in messages if m.finish_time is not None]
    elapsed = (max(finished) - params.start_time) if finished else 0.0
    return _case_from_messages(
        "load", buffer_pkts, qdisc, params, star, sources, messages, elapsed
    )


_SCENARIO_RUNNERS = {
    "incast": _run_incast,
    "coexist": _run_coexist,
    "load": _run_load,
}


def run_matrix_point(
    params: MatrixParams, scenario: str, buffer_pkts: int, qdisc: str, seed: int
) -> MatrixCase:
    """Execute one grid cell."""
    try:
        runner = _SCENARIO_RUNNERS[scenario]
    except KeyError:
        known = ", ".join(sorted(_SCENARIO_RUNNERS))
        raise ValueError(
            f"unknown matrix scenario {scenario!r}; known: {known}"
        ) from None
    return runner(params, buffer_pkts, qdisc, seed)


@register
class MatrixExperiment(Experiment):
    """Competitor matrix: scenario × buffer × qdisc per protocol."""

    id = "matrix"
    title = "Competitor-protocol head-to-head matrix"
    params_cls = MatrixParams

    def points(self, params: MatrixParams) -> list[Point]:
        return [
            Point(
                f"{scenario}-b{buffer_pkts}-{qdisc}",
                {
                    "scenario": scenario,
                    "buffer_pkts": buffer_pkts,
                    "qdisc": qdisc,
                },
            )
            for scenario in params.scenarios
            for buffer_pkts in params.buffers
            for qdisc in params.qdiscs
        ]

    def run_point(self, params: MatrixParams, point: Point, seed: int) -> Any:
        return run_matrix_point(
            params,
            point.kwargs["scenario"],
            point.kwargs["buffer_pkts"],
            point.kwargs["qdisc"],
            seed,
        )

    def reduce(
        self, params: Any, points: Sequence[Point], results: Sequence[Any]
    ) -> Any:
        """Cases in grid order; failed cells are dropped (each case
        carries its own scenario/buffer/qdisc coordinates)."""
        return [r for r in results if r is not None]

    def report(self, params: Any, payload: Any) -> None:
        partner = params.partner()
        print(
            f"[{params.protocol}] competitor matrix "
            f"({params.n_senders} senders, {params.block_bytes // 1024} KB "
            f"blocks; coexist partner: {partner}):"
        )
        header = (
            "  scenario  buf  qdisc     done     fct_mean   goodput "
            "   retx   to  drop  mark  share  jain"
        )
        print(header)
        for case in payload:
            fct = (
                f"{case.fct_mean * 1e3:7.2f} ms"
                if not math.isnan(case.fct_mean)
                else "      --  "
            )
            share = (
                f"{case.share:5.2f}" if not math.isnan(case.share) else "   --"
            )
            jain = (
                f"{case.jain:5.3f}" if not math.isnan(case.jain) else "   --"
            )
            print(
                f"  {case.scenario:<8}  {case.buffer_pkts:3d}  "
                f"{case.qdisc:<8}  {case.completed:3d}/{case.offered:<3d}  "
                f"{fct}  {case.goodput_bps / 1e6:7.1f} Mbps  "
                f"{case.retransmits:4d}  {case.timeouts:3d}  "
                f"{case.dropped_packets:4d}  {case.marked_packets:4d}  "
                f"{share}  {jain}"
            )
