"""Deterministic JSONL export of telemetry rows.

The JSONL encoding is the flight recorder's interchange format: one
JSON object per line, keys sorted, no whitespace, floats in Python's
shortest round-tripping ``repr``.  Two runs with the same seed produce
byte-identical files — the property the golden telemetry test pins.

``check_jsonl`` is the schema smoke used by ``trace --check`` (and CI):
every line must parse, validate against the per-channel schema in
:mod:`repro.obs.records`, and re-serialize to exactly the bytes read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Union

from repro.obs.records import validate_row

__all__ = [
    "check_jsonl",
    "dump_row",
    "load_jsonl",
    "write_jsonl",
]

PathLike = Union[str, Path]


def dump_row(row: Mapping[str, Any]) -> str:
    """One canonical JSONL line (no trailing newline)."""
    return json.dumps(dict(row), sort_keys=True, separators=(",", ":"))


def write_jsonl(rows: Iterable[Mapping[str, Any]], path: PathLike) -> Path:
    """Write rows as canonical JSONL; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(dump_row(row))
            fh.write("\n")
    return target


def load_jsonl(path: PathLike) -> list[dict[str, Any]]:
    """Read a JSONL trace back into a list of row dicts."""
    rows: list[dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad JSONL line: {exc}"
                ) from None
    return rows


def check_jsonl(path: PathLike) -> int:
    """Validate a trace file; returns its record count.

    Checks, per line: JSON parses, the row matches its channel schema,
    and re-serializing reproduces the exact bytes read (the round-trip
    half of the determinism contract).  Raises ValueError on the first
    violation.
    """
    count = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            try:
                row = json.loads(stripped)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from None
            try:
                validate_row(row)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if dump_row(row) != stripped:
                raise ValueError(
                    f"{path}:{lineno}: line is not in canonical form "
                    "(re-serialization differs)"
                )
            count += 1
    return count
