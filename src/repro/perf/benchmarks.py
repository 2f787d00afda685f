"""Layer probes over the simulation hot path.

Every probe is a deterministic, self-contained function of a single
integer ``scale`` knob: it builds a fresh simulation, drives it, and
returns the executed-event count plus a behavior checksum.  Nothing
here reads a clock — speed is ``bench/``'s job (``python3 -m bench
run``).  The event count is exact on any host, so ``tests/test_perf.py``
pins it, together with the flight recorder's zero-cost-when-disabled
contract.  The four probes isolate layers:

``kernel_churn``
    Pure :class:`~repro.sim.kernel.Simulator` scheduling: many flows
    each restarting a long retransmission-style timer per tick, so most
    deadlines are pushed back before they fire — the pattern that
    dominates TCP simulations and the one ``Simulator.restart`` and the
    timer wheel exist for.
``link_saturation``
    One Reno flow saturating a single link: the
    ``Link.transmit``/``TcpSource`` send/ACK pipeline with no loss.
``trim_probe``
    A TCP-TRIM connection sending trains separated by OFF gaps: the
    probe cycle (suspend, probe pair, deadline, window inheritance).
    Runs with ``telemetry=None`` and crosses the emit points in
    ``tcp/base``, ``core/trim``, ``net/link`` and ``net/queues``, so it
    is the *disabled* path of :mod:`repro.obs`: no call into that
    package, same events as the traced run.
``telemetry_trace``
    The same body with a full-capture flight-recorder bus attached: the
    enabled-path cost of :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.topology import build_star
from repro.obs import Telemetry, TraceSpec
from repro.sim.kernel import Event, Simulator
from repro.tcp.base import TcpSource
from repro.tcp.factory import default_config, make_connection

__all__ = [
    "BenchRun",
    "bench_kernel_churn",
    "bench_link_saturation",
    "bench_telemetry_trace",
    "bench_trim_probe",
]


@dataclass
class BenchRun:
    """What one benchmark execution did (identical across repeats)."""

    events: int
    sim_seconds: float
    checksum: int


class _ChurnFlow:
    """One synthetic flow: every tick re-arms a long timeout timer.

    This mirrors what a TCP sender does on every ACK — restart the
    pending RTO ~400 ticks in the future — so the overwhelming majority
    of timer deadlines are pushed back long before they fire.
    """

    __slots__ = ("sim", "interval", "timeout", "remaining", "timer", "fired")

    def __init__(
        self, sim: Simulator, interval: float, timeout: float, ticks: int
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.timeout = timeout
        self.remaining = ticks
        self.timer: Optional[Event] = None
        self.fired = 0

    def start(self) -> None:
        self.sim.schedule(self.interval, self.on_tick)

    def on_tick(self) -> None:
        if self.timer is None:
            self.timer = self.sim.schedule(self.timeout, self.on_timeout)
        else:
            self.timer = self.sim.restart(self.timer, self.timeout)
        self.remaining -= 1
        if self.remaining > 0:
            self.sim.schedule(self.interval, self.on_tick)

    def on_timeout(self) -> None:
        self.timer = None
        self.fired += 1


def bench_kernel_churn(scale: int) -> BenchRun:
    """Pure kernel event churn: schedule/restart/pop, no network."""
    sim = Simulator(check_invariants=False)
    n_flows = 50
    ticks = 40 * scale
    flows = []
    for i in range(n_flows):
        # Slightly different periods per flow so the heap stays mixed.
        flow = _ChurnFlow(
            sim, interval=5e-4 + i * 1e-6, timeout=0.2, ticks=ticks
        )
        flow.start()
        flows.append(flow)
    sim.run()
    checksum = sim.events_executed * 31 + sum(f.fired for f in flows)
    return BenchRun(sim.events_executed, sim.now, checksum)


def _star_flow(
    protocol: str,
    buffer_pkts: int,
    max_cwnd: float = 1e12,
    telemetry: Optional[Telemetry] = None,
    **extras: object,
) -> tuple[Simulator, TcpSource]:
    """One ``protocol`` flow from a lone server to the front-end."""
    sim = Simulator(check_invariants=False, telemetry=telemetry)
    star = build_star(
        sim, 1, bandwidth_bps=1e9, delay_s=50e-6, buffer_pkts=buffer_pkts
    )
    config = default_config(
        protocol, min_rto=0.01, initial_rto=0.01, max_cwnd=max_cwnd
    )
    source, _ = make_connection(
        protocol,
        sim,
        star.servers[0],
        star.frontend,
        flow_id=0,
        config=config,
        **extras,  # type: ignore[arg-type]
    )
    return sim, source


def bench_link_saturation(scale: int) -> BenchRun:
    """One lossless Reno flow pushing a long message through one link.

    ``max_cwnd`` is pinned just above the path BDP so the flow reaches a
    steady saturated pipeline: without the cap, validation-free Reno
    slow-starts its window (and the queue, and every RTT-scaled cost)
    without bound and the benchmark measures a pathology instead of the
    per-packet pipeline.
    """
    sim, source = _star_flow("reno", buffer_pkts=256, max_cwnd=64.0)
    segments = 800 * scale
    source.send_message(segments)
    sim.run(until=30.0)
    if not source.all_acked:  # pragma: no cover - sizing bug guard
        raise RuntimeError("link_saturation did not drain; resize the benchmark")
    checksum = sim.events_executed * 31 + source.stats.segments_sent
    return BenchRun(sim.events_executed, sim.now, checksum)


def _trim_trains(scale: int, telemetry: Optional[Telemetry]) -> BenchRun:
    """TCP-TRIM trains separated by OFF gaps: repeated probe cycles.

    With a bus attached the checksum folds in the captured record count,
    so a silently broken emit point fails the behavior check rather than
    flattering the timing.
    """
    sim, source = _star_flow(
        "trim",
        buffer_pkts=100,
        telemetry=telemetry,
        capacity_pps=1e9 / (8.0 * 1460),
        base_rtt=2 * 50e-6 + 1500 * 8 / 1e9,
    )
    trains = 6 * scale
    for k in range(trains):
        sim.schedule_at(0.001 + k * 0.02, source.send_message, 40)
    sim.run(until=0.001 + trains * 0.02 + 1.0)
    cycles = source.probes_completed + source.probes_timed_out  # type: ignore[attr-defined]
    if cycles == 0:  # pragma: no cover - sizing bug guard
        raise RuntimeError("trim_probe never probed; resize the benchmark")
    captured = 0
    if telemetry is not None:
        captured = telemetry.total_records() + sum(telemetry.overflow.values())
        if captured == 0:  # pragma: no cover - sizing bug guard
            raise RuntimeError(
                "telemetry_trace captured nothing; emit points broken?"
            )
    checksum = (sim.events_executed * 31 + cycles) * 31 + captured
    return BenchRun(sim.events_executed, sim.now, checksum)


def bench_trim_probe(scale: int) -> BenchRun:
    """The probe-cycle workload with the flight recorder disabled."""
    return _trim_trains(scale, None)


def bench_telemetry_trace(scale: int) -> BenchRun:
    """The probe-cycle workload with every trace channel recording."""
    return _trim_trains(scale, Telemetry(TraceSpec.parse("all")))
