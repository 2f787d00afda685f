"""repro.obs — the flight recorder.

A low-overhead, seed-deterministic observability layer: a central
:class:`Telemetry` bus attached to the simulation kernel, typed records
from the transport/TRIM/queue/fault emit points, bounded ring buffers
with optional decimation, deterministic JSONL export, and timeline
query views.  This is the *push* half of observation (an opt-in event
trace); figures are built from the pull half,
:class:`repro.sim.monitor.PeriodicSampler`.  Off by default; a
simulation without a bus pays one attribute load and one None-check per
emit point.
"""

from repro.obs.dispatch import DispatchLog
from repro.obs.export import (
    check_jsonl,
    dump_row,
    load_jsonl,
    write_jsonl,
)
from repro.obs.records import (
    CHANNELS,
    SAMPLE_CHANNELS,
    CwndRecord,
    DispatchRecord,
    FaultRecord,
    PoolRecord,
    ProbeRecord,
    QueueRecord,
    RtoRecord,
    RttRecord,
    SessionRecord,
    StateRecord,
    validate_row,
)
from repro.obs.spec import TraceSpec
from repro.obs.telemetry import DEFAULT_CAPACITY, QueueTap, Telemetry
from repro.obs.timeline import CwndTimeline, QueueTimeline

__all__ = [
    "CHANNELS",
    "DEFAULT_CAPACITY",
    "SAMPLE_CHANNELS",
    "CwndRecord",
    "CwndTimeline",
    "DispatchLog",
    "DispatchRecord",
    "FaultRecord",
    "PoolRecord",
    "ProbeRecord",
    "QueueRecord",
    "QueueTap",
    "QueueTimeline",
    "RtoRecord",
    "RttRecord",
    "SessionRecord",
    "StateRecord",
    "Telemetry",
    "TraceSpec",
    "check_jsonl",
    "dump_row",
    "load_jsonl",
    "validate_row",
    "write_jsonl",
]
