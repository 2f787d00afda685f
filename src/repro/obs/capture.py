"""Environment plumbing: trace capture across the sweep-pool boundary.

The experiments CLI turns ``--trace SPEC`` / ``--trace-out DIR`` into
the ``REPRO_TRACE`` / ``REPRO_TRACE_OUT`` environment variables — the
one channel sweep worker processes inherit (exactly as
``--check-invariants`` does).  Every :class:`~repro.sim.kernel.Simulator`
constructed while ``REPRO_TRACE`` is set builds itself a
:class:`~repro.obs.telemetry.Telemetry` bus from the spec and registers
it in this module's process-local active list; after a sweep point
finishes, the runner drains that list and writes one JSONL trace file
per point, named by the point's identity digest — the same
``(experiment, label, seed, params digest)`` key the checkpoint journal
uses, so trace files survive ``--resume`` (a resumed point skips
execution and keeps the file from the run that produced it).
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Any, Optional

from repro.obs.export import write_jsonl
from repro.obs.spec import TraceSpec
from repro.obs.telemetry import Telemetry

__all__ = [
    "ENV_SPEC",
    "ENV_OUT",
    "discard_active",
    "drain_active_rows",
    "export_point_trace",
    "telemetry_from_env",
    "trace_dir",
    "trace_path",
    "tracing_enabled",
]

ENV_SPEC = "REPRO_TRACE"
ENV_OUT = "REPRO_TRACE_OUT"
DEFAULT_TRACE_DIR = "traces"

#: buses created by Simulator construction since the last drain, in
#: creation order.  Process-local: each sweep worker accumulates (and
#: drains) only the simulations it ran itself.
_ACTIVE: list[Telemetry] = []


def tracing_enabled() -> bool:
    """True when ``REPRO_TRACE`` requests capture in this process."""
    return bool(os.environ.get(ENV_SPEC, "").strip())


def telemetry_from_env() -> Optional[Telemetry]:
    """Build (and register) a bus from ``REPRO_TRACE``, or None.

    Called by ``Simulator.__init__`` when no explicit bus was passed.  A
    malformed spec raises ValueError — the CLI validates ``--trace``
    before setting the variable, so this only fires on a hand-set
    environment, where failing loudly beats silently not tracing.
    """
    text = os.environ.get(ENV_SPEC, "").strip()
    if not text:
        return None
    telemetry = Telemetry(TraceSpec.parse(text))
    _ACTIVE.append(telemetry)
    return telemetry


def drain_active_rows() -> list[dict[str, Any]]:
    """Rows from every active bus (creation order), clearing the list."""
    buses, _ACTIVE[:] = list(_ACTIVE), []
    rows: list[dict[str, Any]] = []
    for bus in buses:
        rows.extend(bus.rows())
    return rows


def discard_active() -> None:
    """Drop accumulated buses without exporting (failed/retried point)."""
    _ACTIVE.clear()


# ----------------------------------------------------------------------
# Per-point trace files
# ----------------------------------------------------------------------
def trace_dir() -> Path:
    """The trace output directory (``REPRO_TRACE_OUT`` or ./traces)."""
    return Path(
        os.environ.get(ENV_OUT, "").strip() or DEFAULT_TRACE_DIR
    ).expanduser()


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=+-]+", "_", label) or "point"


def trace_path(
    experiment_id: str, label: str, seed: int, params_digest: str = ""
) -> Path:
    """Deterministic per-point trace file path.

    Mirrors the checkpoint journal key ``(experiment, label, seed,
    params digest)``: protocol variants of one figure share labels and
    seeds by design, so the digest keeps their traces apart.
    """
    digest = (params_digest or "na")[:8]
    name = f"{experiment_id}-{_sanitize(label)}-seed{seed}-{digest}.jsonl"
    return trace_dir() / name


def export_point_trace(
    experiment_id: str, label: str, seed: int, params_digest: str = ""
) -> Optional[Path]:
    """Drain the active buses into this point's JSONL file.

    Returns the written path, or None when tracing is off.  An empty
    file is still written when the point emitted nothing, so sweep
    tooling can glob one file per executed point.
    """
    if not tracing_enabled():
        discard_active()
        return None
    rows = drain_active_rows()
    return write_jsonl(rows, trace_path(experiment_id, label, seed, params_digest))
