"""Measurement: what is computed from an observed run.

Completion and fairness statistics (:mod:`~repro.metrics.stats`), the
injected-versus-congestion loss ledger (:mod:`~repro.metrics.faults`),
the per-packet wire log built on ``Link.add_observer``
(:mod:`~repro.metrics.tracing`) and terminal charts
(:mod:`~repro.metrics.ascii`).  Time series themselves come from
:class:`repro.sim.monitor.PeriodicSampler`.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.ascii import cdf_table as cdf_table
    from repro.metrics.ascii import sparkline as sparkline
    from repro.metrics.ascii import strip_chart as strip_chart
    from repro.metrics.faults import FaultReport as FaultReport
    from repro.metrics.faults import fault_report as fault_report
    from repro.metrics.stats import CompletionSummary as CompletionSummary
    from repro.metrics.stats import act as act
    from repro.metrics.stats import completion_times as completion_times
    from repro.metrics.stats import jain_fairness as jain_fairness
    from repro.metrics.stats import percentile as percentile
    from repro.metrics.stats import summarize as summarize
    from repro.metrics.tracing import LoggedPacket as LoggedPacket
    from repro.metrics.tracing import PacketLogger as PacketLogger

_lazy_exports(__name__, {
    "cdf_table": "repro.metrics.ascii",
    "sparkline": "repro.metrics.ascii",
    "strip_chart": "repro.metrics.ascii",
    "FaultReport": "repro.metrics.faults",
    "fault_report": "repro.metrics.faults",
    "CompletionSummary": "repro.metrics.stats",
    "act": "repro.metrics.stats",
    "completion_times": "repro.metrics.stats",
    "jain_fairness": "repro.metrics.stats",
    "percentile": "repro.metrics.stats",
    "summarize": "repro.metrics.stats",
    "LoggedPacket": "repro.metrics.tracing",
    "PacketLogger": "repro.metrics.tracing",
})
