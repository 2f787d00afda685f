"""Testbed-substitute experiments — Figure 13.

The paper's Section IV.D runs on real DELL machines; we re-express both
setups as simulator scenarios (see DESIGN.md's substitution table):

* :func:`run_arct_sweep` — Fig. 13(a): two servers stream large files
  through a 100 Mbps switch while a third sends 100 responses whose
  mean size sweeps 32 KB → 1 MB (each size ±10%); the metric is the
  average response completion time (ARCT), CUBIC versus TCP-TRIM.
* :func:`run_web_service` — Fig. 13(b)–(e): four servers send thousands
  of responses with Fig. 2's size/gap distributions over 1 Gbps links;
  the paper scatter-plots the 64–256 KB samples (TRIM never exceeds
  25 ms) and gives the full CDF (99% < 25 ms for TRIM).
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
    warm_config,
)
from repro.http.apps import LongTrainSender, ScheduledResponder
from repro.http.workload import generate_onoff_schedule
from repro.metrics.stats import act, completion_times, percentile
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.sim.randomness import seeded_rng
from repro.tcp.factory import default_config

__all__ = [
    "ArctCase",
    "ArctExperiment",
    "ArctParams",
    "WebServiceExperiment",
    "WebServiceParams",
    "WebServiceResult",
    "run_arct_sweep",
    "run_web_service",
]


# ----------------------------------------------------------------------
# Fig. 13(a): ARCT versus mean response size
# ----------------------------------------------------------------------

@dataclass
class ArctParams:
    """Fig. 13(a) parameters."""

    protocol: str = "cubic"
    mean_sizes_bytes: Sequence[int] = (
        32_768, 65_536, 131_072, 262_144, 524_288, 1_048_576
    )
    n_responses: int = 100
    size_jitter: float = 0.1  # ±10% around the mean, per the paper
    n_background: int = 2
    bandwidth_bps: float = 100e6
    #: one-way host-to-switch latency.  Desktop NICs + kernel stacks at
    #: 100 Mbps sit near half a millisecond, far above fabric latency;
    #: this sets the D of Eq. 22 (and hence TRIM's headroom K − D).
    delay_s: float = 500e-6
    buffer_pkts: int = 100
    #: OFF gap between consecutive responses.  Must exceed the loaded
    #: RTT (tens of ms behind a full 100 Mbps drop-tail queue) so each
    #: response is a fresh packet train that inherits the window of the
    #: previous one — the testbed's request/response think-time.
    response_gap: float = 50e-3
    min_rto: float = 0.2
    deadline_per_response: float = 2.0
    seed: int = 1

    @classmethod
    def paper(cls, protocol: str = "cubic", **overrides: Any) -> "ArctParams":
        return cls(protocol=protocol, **overrides)

    @classmethod
    def quick(cls, protocol: str = "cubic", **overrides: Any) -> "ArctParams":
        defaults = dict(
            mean_sizes_bytes=(32_768, 131_072, 524_288), n_responses=20
        )
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class ArctCase:
    """One sweep point: the ARCT at one mean response size."""

    mean_size_bytes: int
    arct: float
    max_ct: float
    completed: int
    timeouts: int


def run_arct_sweep(params: ArctParams) -> list[ArctCase]:
    """Fig. 13(a): ARCT versus mean response size."""
    cases = []
    for mean_size in params.mean_sizes_bytes:
        cases.append(_run_arct_case(params, mean_size))
    return cases


def _run_arct_case(params: ArctParams, mean_size: int) -> ArctCase:
    sim = Simulator()
    rng = seeded_rng(params.seed, mean_size)
    star = build_star(
        sim,
        params.n_background + 1,
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
            [(params.delay_s, params.bandwidth_bps)] * 2
        ),
    )
    background_hosts = star.servers[: params.n_background]
    responder_host = star.servers[params.n_background]
    for host in background_hosts:
        src, _sink = connections.connect(host, star.frontend, config=warm_config(config))
        LongTrainSender(sim, src, 0.0).start()
    responder_src, _sink = connections.connect(responder_host, star.frontend)

    # Responses are sent back-to-back with an OFF gap after each
    # completion, modelling the testbed's sequential request/response
    # loop over one persistent connection.
    messages = []
    jitter = params.size_jitter

    def send_next() -> None:
        if len(messages) >= params.n_responses:
            return
        size = int(mean_size * rng.uniform(1.0 - jitter, 1.0 + jitter))
        messages.append(
            responder_src.send_bytes(
                max(1, size),
                on_complete=lambda _m: sim.schedule(params.response_gap, send_next),
            )
        )

    sim.schedule_at(0.05, send_next)
    deadline = 0.05 + params.deadline_per_response * params.n_responses
    run_until(
        sim,
        lambda: len(messages) >= params.n_responses
        and all(m.finish_time is not None for m in messages),
        deadline,
        step=0.5,
    )
    times = completion_times(messages)
    if not times:
        raise RuntimeError("no response completed; raise the deadline")
    return ArctCase(
        mean_size_bytes=mean_size,
        arct=act(times),
        max_ct=max(times),
        completed=len(times),
        timeouts=connections.total_timeouts,
    )


# ----------------------------------------------------------------------
# Fig. 13(b)–(e): the web-service scenario
# ----------------------------------------------------------------------

@dataclass
class WebServiceParams:
    """Fig. 13(b)–(e) parameters."""

    protocol: str = "cubic"
    n_servers: int = 4
    n_responses_per_server: int = 1000
    bandwidth_bps: float = 1e9
    delay_s: float = 100e-6
    buffer_pkts: int = 100
    start_time: float = 0.05
    min_rto: float = 0.2
    scatter_band_bytes: tuple[int, int] = (65_536, 262_144)
    tail_threshold: float = 25e-3  # the paper's 25 ms line
    deadline: float = 30.0
    seed: int = 1

    @classmethod
    def paper(cls, protocol: str = "cubic", **overrides: Any) -> "WebServiceParams":
        return cls(protocol=protocol, **overrides)

    @classmethod
    def quick(cls, protocol: str = "cubic", **overrides: Any) -> "WebServiceParams":
        defaults = dict(n_responses_per_server=150, deadline=10.0)
        defaults.update(overrides)
        return cls(protocol=protocol, **defaults)


@dataclass
class WebServiceResult:
    """Fig. 13(b)–(e) observables."""

    protocol: str
    all_times: list[float]
    band_times: list[float]  # completion times of 64–256 KB responses
    band_max: float
    band_fraction_under_threshold: float
    p99: float
    fraction_under_threshold: float
    arct: float
    timeouts: int


def run_web_service(params: WebServiceParams) -> WebServiceResult:
    """Fig. 13(b)–(e): thousands of Fig. 2-distributed responses."""
    sim = Simulator()
    rng = seeded_rng(params.seed)
    star = build_star(
        sim,
        params.n_servers,
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
            [(params.delay_s, params.bandwidth_bps)] * 2
        ),
    )
    responders = []
    sizes_by_responder: list[list[int]] = []
    for host in star.servers:
        src, _sink = connections.connect(host, star.frontend)
        # Draw ON/OFF events until this server has its response quota.
        events = []
        t = params.start_time
        while len(events) < params.n_responses_per_server:
            more = generate_onoff_schedule(
                rng,
                duration=1.0,
                start_time=t,
                drain_rate_bps=params.bandwidth_bps,
            )
            events.extend(more)
            t += 1.0
        events = events[: params.n_responses_per_server]
        sizes_by_responder.append([e.size_bytes for e in events])
        responders.append(ScheduledResponder(sim, src, events).start())

    def all_done() -> bool:
        return all(
            len(r.completed) == params.n_responses_per_server for r in responders
        )

    run_until(sim, all_done, params.deadline, step=0.5)

    all_times: list[float] = []
    band_times: list[float] = []
    lo, hi = params.scatter_band_bytes
    for responder, sizes in zip(responders, sizes_by_responder):
        for message, size in zip(responder.messages, sizes):
            if message.finish_time is None:
                continue
            ct = message.completion_time
            all_times.append(ct)
            if lo <= size <= hi:
                band_times.append(ct)
    if not all_times:
        raise RuntimeError("no responses completed; raise the deadline")
    under = sum(1 for t in all_times if t < params.tail_threshold) / len(all_times)
    band_under = (
        sum(1 for t in band_times if t < params.tail_threshold) / len(band_times)
        if band_times
        else 1.0
    )
    return WebServiceResult(
        protocol=params.protocol,
        all_times=all_times,
        band_times=band_times,
        band_max=max(band_times) if band_times else 0.0,
        band_fraction_under_threshold=band_under,
        p99=percentile(all_times, 99),
        fraction_under_threshold=under,
        arct=act(all_times),
        timeouts=connections.total_timeouts,
    )


@register
class ArctExperiment(Experiment):
    """Fig. 13(a): one independent simulation per mean response size."""

    id = "fig13a"
    title = "Fig. 13(a) ARCT vs mean response size"
    params_cls = ArctParams

    def select_protocols(self, protocols: Sequence[str]) -> list[str]:
        # The testbed comparison is CUBIC (the Linux default) vs TRIM;
        # ECN protocols are out of scope for Fig. 13(a).
        selected = [p for p in protocols if p not in ("dctcp", "l2dct")]
        if selected == ["reno", "trim"]:
            selected = ["cubic", "trim"]
        return selected

    def points(self, params: ArctParams) -> list[Point]:
        return [
            Point(f"size{m}", {"mean_size": m}) for m in params.mean_sizes_bytes
        ]

    def run_point(self, params: ArctParams, point: Point, seed: int) -> Any:
        return _run_arct_case(
            replace(params, seed=seed), point.kwargs["mean_size"]
        )

    def report(self, params: Any, payload: Any) -> None:
        MS = 1e3
        print(f"[{params.protocol}] Fig.13a ARCT vs mean response size:")
        for case in payload:
            print(f"  size={case.mean_size_bytes / 1024:7.0f}KB  "
                  f"ARCT={case.arct * MS:9.2f}ms  max={case.max_ct * MS:9.2f}ms  "
                  f"timeouts={case.timeouts}")


@register
class WebServiceExperiment(Experiment):
    """Fig. 13(b)-(e): a single web-service run per protocol."""

    id = "fig13be"
    title = "Fig. 13(b)-(e) web-service response times"
    params_cls = WebServiceParams

    def points(self, params: WebServiceParams) -> list[Point]:
        return [Point("run")]

    def run_point(self, params: WebServiceParams, point: Point, seed: int) -> Any:
        return run_web_service(replace(params, seed=seed))

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        return results[0]

    def report(self, params: Any, payload: Any) -> None:
        MS = 1e3
        r = payload
        print(f"[{params.protocol}] Fig.13b-e web service: "
              f"ARCT={r.arct * MS:7.2f}ms  p99={r.p99 * MS:7.2f}ms  "
              f"64-256KB max={r.band_max * MS:7.2f}ms  "
              f"<25ms: {r.fraction_under_threshold:.1%}  timeouts={r.timeouts}")
