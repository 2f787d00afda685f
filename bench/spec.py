"""What the benchmark measures: metric names, units, directions, bounds.

This module is the single source ``BENCHMARK.json`` is generated from
(``python3 -m bench list``); a test asserts the two agree.  It imports
nothing from ``repro`` so listing works without the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from bench.workloads import WORKLOADS

__all__ = [
    "COMMAND",
    "END_TO_END",
    "LAYERS",
    "Metric",
    "PATHS",
    "PER_LAYER",
    "RUN_SECONDS",
    "benchmark_document",
]

#: how the driver invokes one run; it appends
#: ``--workload W --seed N --seconds S --trace 0|1``.
COMMAND = ["python3", "-m", "bench", "measure"]
PATHS = ["bench"]
#: host seconds of timed iterations per run.  The driver's budget is
#: 3420 s for 92 runs (~37 s each, set-up included).  New iterations
#: start until 20 s have passed, which is 4-5 iterations of 4-6.5 s; with
#: set-up probes and warm-up a run takes ~28 s, leaving a quarter of the
#: budget for a slow spell of the shared host.
RUN_SECONDS = 20

#: packages under ``src/repro/`` that count as layers, in report order.
LAYERS = (
    "sim", "net", "tcp", "core", "http", "experiments", "runner",
    "metrics", "obs", "faults",
)


@dataclass(frozen=True)
class Metric:
    """One reported number.  ``bound`` is the share of the parent's
    median by which an end-to-end metric may worsen (None per layer)."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    what: str = ""


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25,
           "host seconds: median over timed iterations of one full iteration"),
    Metric("pkt_hops_per_s", "1/s", "higher", 0.25,
           "sum of Link.stats.tx_packets per iteration / wall_s"),
    Metric("events_per_pkt_hop", "ratio", "lower", 0.01,
           "sum of Simulator.events_executed / sum of tx_packets; exact"),
    Metric("peak_rss_mb", "MB", "lower", 0.15,
           "max ru_maxrss over the run's process and its children"),
    Metric("setup_s", "s", "lower", 0.25,
           "host seconds from the first line of the process to ready to "
           "iterate, median over fresh processes"),
)


def _layer(name: str, unit: str, better: str = "lower", what: str = "") -> Metric:
    return Metric(name, unit, better, None, what)


PER_LAYER = (
    # sim
    _layer("sim.self_s", "s"),
    _layer("sim.calls", "count"),
    _layer("sim.sched_calls", "count"),
    _layer("sim.events", "count"),
    _layer("sim.events_per_flow", "ratio"),
    _layer("sim.ns_per_event", "ns", what="untraced: Simulator.run wall / events"),
    # net
    _layer("net.self_s", "s"),
    _layer("net.calls", "count"),
    _layer("net.links", "count"),
    _layer("net.pkt_hops", "count"),
    _layer("net.drops", "count"),
    _layer("net.marks", "count"),
    _layer("net.drop_share", "ratio"),
    _layer("net.peak_queue_pkts", "count"),
    _layer("net.self_us_per_hop", "us"),
    # tcp
    _layer("tcp.self_s", "s"),
    _layer("tcp.calls", "count"),
    _layer("tcp.connections", "count"),
    _layer("tcp.segments_sent", "count"),
    _layer("tcp.retransmits", "count"),
    _layer("tcp.timeouts", "count"),
    _layer("tcp.retx_share", "ratio"),
    _layer("tcp.self_us_per_segment", "us"),
    # core (TCP-TRIM)
    _layer("core.self_s", "s"),
    _layer("core.probes_completed", "count", "higher"),
    _layer("core.probes_timed_out", "count"),
    _layer("core.delay_decreases", "count"),
    # http
    _layer("http.self_s", "s"),
    _layer("http.build_self_s", "s"),
    _layer("http.requests_offered", "count", "higher"),
    _layer("http.requests_completed", "count", "higher"),
    _layer("http.conns_opened", "count"),
    _layer("http.reuse_share", "ratio", "higher"),
    # experiments
    _layer("experiments.self_s", "s"),
    _layer("experiments.build_s", "s"),
    _layer("experiments.reduce_s", "s"),
    _layer("experiments.points", "count", "higher"),
    # runner
    _layer("runner.self_s", "s"),
    _layer("runner.wait_s", "s", what="traced: parent blocked on its workers"),
    _layer("runner.cold_s", "s", what="untraced"),
    _layer("runner.warm_s", "s", what="untraced"),
    _layer("runner.resume_s", "s", what="untraced"),
    _layer("runner.serial_s", "s", what="untraced"),
    _layer("runner.overhead_ms_per_point", "ms",
           what="(cold - serial/jobs) / points"),
    _layer("runner.parallel_efficiency", "ratio", "higher",
           what="serial / (jobs * cold)"),
    _layer("runner.cache_hits", "count", "higher"),
    _layer("runner.resumed", "count", "higher"),
    _layer("runner.retries", "count"),
    _layer("runner.failures", "count"),
    _layer("runner.journal_bytes", "bytes"),
    # expected ~0 with telemetry off; non-zero is a leak
    _layer("metrics.self_s", "s"),
    _layer("obs.self_s", "s"),
    _layer("faults.self_s", "s"),
    # the harness itself
    _layer("harness.import_s", "s"),
    _layer("harness.warmup_s", "s"),
    _layer("harness.other_self_s", "s"),
    _layer("trace.overhead_x", "x", what="traced / untraced iteration wall"),
)


def benchmark_document() -> dict[str, Any]:
    """Exactly the content of the root ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
