"""The trace-replay interchange format.

One JSON object per line, canonical encoding (sorted keys, no
whitespace, shortest round-tripping float ``repr``)::

    {"session":0,"size":4096,"t":0.0125}

A trace is a :class:`~repro.http.openloop.sessions.SessionSchedule`
flattened to its ``(t, session, size)`` tuples — everything a driver
needs to offer the same load to *any* protocol.  Exporting a compiled
schedule and replaying the file reproduces the original schedule
byte for byte (the round-trip property test), so real packet traces
converted to this format drive experiments exactly like synthetic
arrivals do.

The encoding deliberately reuses :mod:`repro.obs.export`'s canonical
JSONL conventions (the flight recorder's interchange format) without
its channel schema: trace rows are workload, not telemetry.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Union

from repro.http.openloop.sessions import ScheduledRequest, SessionSchedule
from repro.obs.export import dump_row

__all__ = ["check_trace", "load_trace", "trace_rows", "write_trace"]

PathLike = Union[str, Path]

#: exactly the keys a trace row carries — extras are a format error, so
#: a telemetry JSONL handed to --replay fails loudly instead of half
#: parsing.
ROW_KEYS = frozenset({"t", "session", "size"})


def trace_rows(schedule: SessionSchedule) -> list[dict[str, Any]]:
    """The schedule's requests as canonical-order trace rows."""
    return [
        {"t": r.time, "session": r.session, "size": r.size_bytes}
        for r in schedule.requests
    ]


def write_trace(schedule: SessionSchedule, path: PathLike) -> Path:
    """Write a schedule as canonical trace JSONL; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8", newline="\n") as fh:
        for row in trace_rows(schedule):
            fh.write(dump_row(row))
            fh.write("\n")
    return target


def _read_lines(path: PathLike) -> Iterator[tuple[str, str]]:
    """``(where, line)`` for each line of ``path``, split as text mode
    splits it; bytes that are not UTF-8 are a ValueError naming their
    line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        yield f"{path}:{lineno}", line


def _decode(line: str, where: str) -> Any:
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ValueError(f"{where}: bad JSONL line: {exc}") from None


def _parse_row(row: Any, where: str) -> ScheduledRequest:
    if not isinstance(row, Mapping):
        raise ValueError(f"{where}: trace row is not an object: {row!r}")
    keys = set(row)
    if keys != ROW_KEYS:
        raise ValueError(
            f"{where}: trace row keys {sorted(keys)} != "
            f"{sorted(ROW_KEYS)}: {dict(row)!r}"
        )
    t = row["t"]
    session = row["session"]
    size = row["size"]
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        raise ValueError(f"{where}: 't' is not a number: {t!r}")
    if not isinstance(session, int) or isinstance(session, bool):
        raise ValueError(f"{where}: 'session' is not an integer: {session!r}")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError(f"{where}: 'size' is not a positive integer: {size!r}")
    try:
        time = float(t)
    except OverflowError:  # an integer beyond float range
        time = math.inf
    if not math.isfinite(time):
        raise ValueError(f"{where}: 't' is not finite: {t!r}")
    if time < 0:
        raise ValueError(f"{where}: 't' is negative: {t!r}")
    return ScheduledRequest(time=time, session=session, size_bytes=size)


def load_trace(
    path: PathLike, horizon: Optional[float] = None
) -> SessionSchedule:
    """Read a trace file back into a replayable schedule.

    ``horizon`` overrides the inferred one (just past the last request)
    when the replay should keep offering an idle tail.  A trace without
    a request is a ValueError: there is nothing to replay.
    """
    requests: list[ScheduledRequest] = []
    for where, line in _read_lines(path):
        stripped = line.strip()
        if stripped:
            requests.append(_parse_row(_decode(stripped, where), where))
    if not requests:
        raise ValueError(f"{path}: trace has no requests")
    return SessionSchedule.from_requests(requests, horizon=horizon)


def check_trace(path: PathLike) -> int:
    """Validate a trace file; returns its request count.

    Per line: JSON parses, the row carries exactly the trace keys with
    valid values, and re-serializing reproduces the exact bytes read —
    the same canonical-form contract ``trace --check`` enforces for
    telemetry files.  Times must be non-decreasing (a trace drives the
    kernel timeline in order).  Raises ValueError on the first
    violation.
    """
    count = 0
    previous: Optional[float] = None
    for where, line in _read_lines(path):
        stripped = line.rstrip("\n")
        if not stripped:
            continue
        row = _decode(stripped, where)
        request = _parse_row(row, where)
        if dump_row(row) != stripped:
            raise ValueError(
                f"{where}: line is not in canonical form "
                "(re-serialization differs)"
            )
        if previous is not None and request.time < previous:
            raise ValueError(
                f"{where}: trace times decrease "
                f"({request.time!r} after {previous!r})"
            )
        previous = request.time
        count += 1
    return count
