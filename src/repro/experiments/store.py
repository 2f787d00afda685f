"""Result persistence: experiment outputs as JSON artifacts.

``python -m repro.experiments <id> --output results.json`` snapshots
whatever the experiment measured, with enough metadata (package
version, preset, seed, timestamp source left to the caller) to audit a
figure later.  Dataclasses, numpy scalars/arrays, and
:class:`~repro.sim.monitor.TimeSeries` all serialize.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Any

from repro.sim.monitor import TimeSeries

__all__ = ["load_results", "save_results", "to_jsonable"]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serializable structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj:  # NaN
            return None
        if obj in (float("inf"), float("-inf")):
            return None
        return obj
    np = sys.modules.get("numpy")  # a process that never loaded numpy holds none
    if np is not None and isinstance(obj, np.integer):
        return int(obj)
    if np is not None and isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if np is not None and isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, TimeSeries):
        return {
            "name": obj.name,
            "times": list(obj.times),
            "values": [to_jsonable(v) for v in obj.values],
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
            if not field.name.startswith("_")
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    if callable(obj):
        return getattr(obj, "__qualname__", repr(obj))
    return repr(obj)


def save_results(
    path: str | Path,
    experiment: str,
    payload: Any,
    preset: str = "quick",
    seed: int | None = None,
    metadata: dict | None = None,
) -> Path:
    """Write an experiment artifact; returns the path written.

    ``metadata`` records run provenance that is *not* part of the
    measurement (worker count, cache hits); it never affects
    ``results``, which stay bit-identical across run configurations.
    """
    from repro import __version__

    path = Path(path)
    document = {
        "experiment": experiment,
        "preset": preset,
        "seed": seed,
        "repro_version": __version__,
        "results": to_jsonable(payload),
    }
    if metadata:
        document["metadata"] = to_jsonable(metadata)
    path.write_text(json.dumps(document, indent=1, sort_keys=True))
    return path


def load_results(path: str | Path) -> dict:
    """Read an artifact written by :func:`save_results`."""
    document = json.loads(Path(path).read_text())
    for key in ("experiment", "preset", "results"):
        if key not in document:
            raise ValueError(f"not a repro results artifact: missing {key!r}")
    return document
