"""Measurement: what is computed from an observed run.

Completion and fairness statistics (:mod:`~repro.metrics.stats`), the
injected-versus-congestion loss ledger (:mod:`~repro.metrics.faults`),
the per-packet wire log built on ``Link.add_observer``
(:mod:`~repro.metrics.tracing`) and terminal charts
(:mod:`~repro.metrics.ascii`).  Time series themselves come from
:class:`repro.sim.monitor.PeriodicSampler`.
"""

from repro.metrics.ascii import cdf_table, sparkline, strip_chart
from repro.metrics.faults import FaultReport, fault_report
from repro.metrics.stats import (
    CompletionSummary,
    act,
    cdf_points,
    completion_times,
    jain_fairness,
    percentile,
    summarize,
)
from repro.metrics.tracing import LoggedPacket, PacketLogger

__all__ = [
    "CompletionSummary",
    "FaultReport",
    "LoggedPacket",
    "PacketLogger",
    "act",
    "cdf_points",
    "cdf_table",
    "completion_times",
    "fault_report",
    "jain_fairness",
    "percentile",
    "sparkline",
    "strip_chart",
    "summarize",
]
