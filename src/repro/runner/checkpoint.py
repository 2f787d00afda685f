"""Crash-safe sweep checkpointing.

A :class:`SweepCheckpoint` is an append-only JSONL journal kept next to
the :class:`~repro.runner.cache.ResultCache`: every completed sweep
point is appended as one line — experiment id, point label, derived
seed, and the result as a base64-wrapped pickle (pickled for the same
reason the cache pickles: floats must round-trip *exactly*, so a
resumed sweep reduces to byte-identical payloads).  Each record is
flushed **and fsynced** before ``record()`` returns, so a ``kill -9``
(or power loss) can destroy at most the line being written.

``load()`` tolerates exactly that failure mode: a torn final line — or
any line whose JSON/base64/pickle does not parse, or whose fields are
not the types ``record()`` writes — is skipped rather than poisoning
the resume, and no line raises out of it.  Records are keyed on
``(experiment_id, label, seed, params_digest)`` — the digest matters
because protocol variants of one experiment deliberately share
per-point seeds (matched draws), so id/label/seed alone would collide
across the tasks of one sweep.  When a journal holds several records
for one key (e.g. two interrupted runs), the last wins, matching
append-order semantics.

The journal deliberately does **not** reuse the result cache: the cache
is keyed on the package *version* and shared across sweeps, while a
checkpoint belongs to one invocation and must survive exactly as
written — including results for parameter combinations the cache was
disabled for.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Optional, TextIO

__all__ = ["JOURNAL_SCHEMA", "SweepCheckpoint", "digest_params"]

#: schema id carried by journal header lines.  A header records which
#: execution backend (and jobs configuration) produced the
#: run's records; resume accepts any backend — the journal format is
#: backend-independent, so a sweep killed under ``process`` can resume
#: under ``serial`` and vice versa.  The backend name is informational
#: only and never validated: a journal whose header says
#: ``"backend": "shm"`` (written before that backend was removed) still
#: loads and resumes.  Headers are append-only like every
#: other line: a resumed run appends a fresh header, and ``load()``
#: keeps the last one seen (the configuration that wrote the tail).
JOURNAL_SCHEMA = "repro-sweep-journal/1"

#: key addressing one completed point inside a journal:
#: ``(experiment_id, label, seed, params_digest)``.
PointKey = tuple[str, str, int, str]


def _record_key(doc: Any) -> Optional[PointKey]:
    """The key of a journal record whose fields have the types
    :meth:`SweepCheckpoint.record` writes (``str``, ``str``, an ``int``
    that is not a ``bool``, ``str``), else None: nothing is coerced."""
    if not isinstance(doc, dict):
        return None
    experiment, label, seed = doc.get("experiment"), doc.get("label"), doc.get("seed")
    params = doc.get("params", "")
    if (
        isinstance(experiment, str)
        and isinstance(label, str)
        and type(seed) is int
        and isinstance(params, str)
    ):
        return experiment, label, seed, params
    return None


def digest_params(params: Any) -> str:
    """A short stable fingerprint of a params dataclass.

    Folded into the journal key so two tasks of one sweep that share an
    experiment id, point labels, and (deliberately matched) seeds — the
    protocol variants of a figure — cannot overwrite each other's
    journal records.
    """
    from repro.experiments.store import to_jsonable

    material = json.dumps(
        to_jsonable(params), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class SweepCheckpoint:
    """Append-only JSONL journal of completed sweep-point results."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path).expanduser()
        self.records_written = 0
        #: the last header line ``load()`` saw (None for journals from
        #: before headers existed — they resume fine regardless).
        self.header: Optional[dict] = None
        self._fh: Optional[TextIO] = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(
        self,
        experiment_id: str,
        label: str,
        seed: int,
        value: Any,
        params_digest: str = "",
    ) -> None:
        """Append one completed point; durable when this returns."""
        line = json.dumps(
            {
                "experiment": experiment_id,
                "label": label,
                "seed": seed,
                "params": params_digest,
                "result": base64.b64encode(
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii"),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        fh = self._open()
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
        self.records_written += 1

    def write_header(self, backend: str = "", jobs: int = 0) -> None:
        """Append a header naming the run's execution configuration.

        Purely informational for ``load()`` (resume works across
        backends); durable like every record so a crashed run's journal
        still says what produced it.
        """
        header: dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "backend": backend,
            "jobs": int(jobs),
        }
        line = json.dumps(
            header,
            sort_keys=True,
            separators=(",", ":"),
        )
        fh = self._open()
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())

    def reset(self) -> None:
        """Truncate the journal: a fresh (non-resumed) sweep starts empty
        so stale records from an earlier run can never leak into it."""
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", encoding="utf-8"):
            pass

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> dict[PointKey, Any]:
        """Completed points, keyed ``(id, label, seed, params_digest)``.

        Returns an empty mapping when the journal does not exist.  Torn
        or corrupt lines (the tail a crash cut short) are skipped; later
        records for a repeated key override earlier ones.
        """
        completed: dict[PointKey, Any] = {}
        try:
            fh = self.path.open("r", encoding="utf-8")
        except FileNotFoundError:
            return completed
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except (ValueError, RecursionError):
                    continue  # torn tail or foreign garbage: not resumable
                if isinstance(doc, dict) and doc.get("schema") == JOURNAL_SCHEMA:
                    self.header = doc
                    continue
                key = _record_key(doc)
                if key is None:
                    continue  # a foreign record must not resume as a point
                try:
                    value = pickle.loads(base64.b64decode(doc["result"]))
                except (ValueError, KeyError, TypeError, binascii.Error,
                        pickle.UnpicklingError, EOFError, AttributeError,
                        ImportError, IndexError):
                    continue
                completed[key] = value
        return completed

    # ------------------------------------------------------------------
    def _open(self) -> TextIO:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        return self._fh
