"""The motivation / impairment scenario — Figures 4 and 6.

Five servers behind one switch send 200 small HTTP responses each
(2–10 KB, ~1 ms apart, from 0.1 s) over persistent connections, then a
long packet train each at 0.5 s.  With TCP Reno the inherited windows
(near 900 segments) dump into a path that only holds ~118 packets,
producing the timeouts and throughput collapse of Fig. 4; with TCP-TRIM
the probe re-inherits a sane window and the delay control keeps the
queue under ~20 packets (Fig. 6).

Run the same function with ``protocol="reno"`` for Fig. 4 and
``protocol="trim"`` for Fig. 6.
"""

from __future__ import annotations

from typing import Any, Sequence

from dataclasses import dataclass, field, replace

from repro.experiments.base import Experiment, Point
from repro.experiments.registry import register
from repro.experiments.scenarios import (
    ConnectionSet,
    ecn_threshold_for,
    run_until,
)
from repro.http.apps import ScheduledResponder
from repro.http.workload import response_schedule
from repro.metrics.stats import act, completion_times
from repro.net.packet import MSS_BYTES
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.sim.monitor import PeriodicSampler, TimeSeries, delta_rate
from repro.sim.randomness import RandomStreams

__all__ = [
    "MotivationExperiment",
    "MotivationParams",
    "MotivationResult",
    "run_motivation",
]


#: the response stream: the first at RESPONSE_START, then exponential
#: gaps of mean RESPONSE_INTERVAL, sizes uniform in RESPONSE_SIZE_BYTES.
RESPONSE_START = 0.1
RESPONSE_INTERVAL = 1e-3
RESPONSE_SIZE_BYTES = (2_000, 10_000)
#: sampling period of the queue and cwnd traces (Figs. 4 and 6).
TRACE_PERIOD = 1e-3


@dataclass
class MotivationParams:
    """Parameters of the Section II.B.1 scenario (paper defaults)."""

    protocol: str = "reno"
    n_servers: int = 5
    bandwidth_bps: float = 1e9
    delay_s: float = 50e-6
    buffer_pkts: int = 100
    n_responses: int = 200
    lpt_bytes: int = 2_000_000  # "more than 128 KB"; sized so five LPTs
    # finish within ~0.1 s at line rate, matching Fig. 6's timeline
    lpt_start: float = 0.5
    min_rto: float = 0.2
    deadline: float = 2.5
    seed: int = 1

    @classmethod
    def quick(cls, protocol: str = "reno", **overrides: Any) -> "MotivationParams":
        """Same scenario, lighter: fewer responses and a smaller LPT."""
        defaults = dict(
            n_responses=100, lpt_bytes=500_000, deadline=2.0
        )
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class MotivationResult:
    """Everything Figs. 4 and 6 plot, plus drop/timeout tallies."""

    protocol: str
    throughput_bps: TimeSeries  # bottleneck link, binned
    queue_pkts: TimeSeries  # bottleneck egress queue
    cwnd_traces: list[TimeSeries]  # one per connection
    timeouts_per_connection: list[int] = field(default_factory=list)
    dropped_packets: int = 0
    response_act: float = 0.0
    lpt_completion_times: list[float] = field(default_factory=list)
    all_done_time: float = 0.0  # when every LPT finished
    peak_queue_pkts: float = 0.0
    inherited_cwnd: list[float] = field(default_factory=list)  # at LPT start

    @property
    def total_timeouts(self) -> int:
        return sum(self.timeouts_per_connection)


def run_motivation(params: MotivationParams) -> MotivationResult:
    """Run the scenario and gather the Fig. 4 / Fig. 6 observables."""
    sim = Simulator()
    streams = RandomStreams(params.seed)
    star = build_star(
        sim,
        params.n_servers,
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

    responders = []
    lpt_messages = []
    lpt_segments = max(1, params.lpt_bytes // MSS_BYTES)
    for i, source in enumerate(sources):
        schedule = response_schedule(
            streams.get(f"responses-{i}"),
            params.n_responses,
            RESPONSE_START,
            RESPONSE_INTERVAL,
            RESPONSE_SIZE_BYTES,
        )
        responders.append(ScheduledResponder(sim, source, schedule).start())
        sim.schedule_at(
            params.lpt_start,
            lambda s=source: lpt_messages.append(s.send_message(lpt_segments)),
        )

    link = star.bottleneck
    throughput = PeriodicSampler(
        sim,
        5e-3,
        delta_rate(lambda: link.stats.tx_bytes, 5e-3, scale=8.0),
        name=f"thr:{link.name}",
    ).start(0.0)
    queue = PeriodicSampler(
        sim, TRACE_PERIOD, lambda: link.backlog_pkts, name=f"qlen:{link.name}"
    ).start(0.0)
    tracers = [
        PeriodicSampler(
            sim, TRACE_PERIOD, lambda s=s: s.cwnd, name=f"cwnd:{s.name}"
        ).start(0.0)
        for s in sources
    ]

    inherited: list[float] = []
    sim.schedule_at(
        params.lpt_start - 1e-9, lambda: inherited.extend(s.cwnd for s in sources)
    )

    run_until(
        sim,
        lambda: len(lpt_messages) == len(sources)
        and all(m.finish_time is not None for m in lpt_messages),
        params.deadline,
    )

    response_ct = [
        t for r in responders for t in (completion_times(r.messages))
    ]
    result = MotivationResult(
        protocol=params.protocol,
        throughput_bps=throughput.series,
        queue_pkts=queue.series,
        cwnd_traces=[t.series for t in tracers],
        timeouts_per_connection=connections.timeouts_per_source,
        dropped_packets=star.network.total_dropped(),
        response_act=act(response_ct) if response_ct else 0.0,
        lpt_completion_times=completion_times(lpt_messages),
        all_done_time=max(
            (m.finish_time for m in lpt_messages if m.finish_time is not None),
            default=float("nan"),
        ),
        peak_queue_pkts=queue.series.max() if len(queue.series) else 0.0,
        inherited_cwnd=inherited,
    )
    return result


@register
class MotivationExperiment(Experiment):
    """Figs. 4 and 6: one scenario run per protocol."""

    id = "fig4"
    aliases = ("fig6",)
    title = "Fig. 4/6 motivation & impairment scenario"
    params_cls = MotivationParams

    def points(self, params: MotivationParams) -> list[Point]:
        return [Point("run")]

    def run_point(self, params: MotivationParams, point: Point, seed: int) -> Any:
        return run_motivation(replace(params, seed=seed))

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        return results[0]

    def report(self, params: Any, payload: Any) -> None:
        if payload is None:
            print(f"[{params.protocol}] point failed")
            return
        MS = 1e3
        r = payload
        label = "Fig.4" if params.protocol == "reno" else "Fig.6"
        print(f"{label} [{params.protocol}] "
              f"timeouts/conn={r.timeouts_per_connection} "
              f"drops={r.dropped_packets} peak_queue={r.peak_queue_pkts:.0f}pkt")
        print(f"  inherited cwnd at LPT start: "
              f"{[round(c) for c in r.inherited_cwnd]}")
        print(f"  LPT completion (ms): "
              f"{[round(t * MS, 1) for t in r.lpt_completion_times]}; "
              f"all done at t={r.all_done_time:.3f}s")
