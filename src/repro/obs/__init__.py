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

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.export import check_jsonl as check_jsonl
    from repro.obs.export import dump_row as dump_row
    from repro.obs.export import load_jsonl as load_jsonl
    from repro.obs.export import write_jsonl as write_jsonl
    from repro.obs.records import CHANNELS as CHANNELS
    from repro.obs.records import SAMPLE_CHANNELS as SAMPLE_CHANNELS
    from repro.obs.records import CwndRecord as CwndRecord
    from repro.obs.records import FaultRecord as FaultRecord
    from repro.obs.records import PoolRecord as PoolRecord
    from repro.obs.records import ProbeRecord as ProbeRecord
    from repro.obs.records import QueueRecord as QueueRecord
    from repro.obs.records import RtoRecord as RtoRecord
    from repro.obs.records import RttRecord as RttRecord
    from repro.obs.records import SessionRecord as SessionRecord
    from repro.obs.records import StateRecord as StateRecord
    from repro.obs.records import validate_row as validate_row
    from repro.obs.spec import TraceSpec as TraceSpec
    from repro.obs.telemetry import QueueTap as QueueTap
    from repro.obs.telemetry import Telemetry as Telemetry
    from repro.obs.timeline import CwndTimeline as CwndTimeline
    from repro.obs.timeline import QueueTimeline as QueueTimeline

_lazy_exports(__name__, {
    "check_jsonl": "repro.obs.export",
    "dump_row": "repro.obs.export",
    "load_jsonl": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "CHANNELS": "repro.obs.records",
    "SAMPLE_CHANNELS": "repro.obs.records",
    "CwndRecord": "repro.obs.records",
    "FaultRecord": "repro.obs.records",
    "PoolRecord": "repro.obs.records",
    "ProbeRecord": "repro.obs.records",
    "QueueRecord": "repro.obs.records",
    "RtoRecord": "repro.obs.records",
    "RttRecord": "repro.obs.records",
    "SessionRecord": "repro.obs.records",
    "StateRecord": "repro.obs.records",
    "validate_row": "repro.obs.records",
    "TraceSpec": "repro.obs.spec",
    "QueueTap": "repro.obs.telemetry",
    "Telemetry": "repro.obs.telemetry",
    "CwndTimeline": "repro.obs.timeline",
    "QueueTimeline": "repro.obs.timeline",
})
