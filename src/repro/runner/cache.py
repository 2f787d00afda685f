"""Content-addressed on-disk cache for sweep-point results.

A point's cache key is the SHA-256 of a canonical JSON document holding
the package version, the experiment id, the full params dataclass, the
point, and the derived seed.  Any change to any of those — a code
release, a tweaked parameter, a different seed — changes the key, so
stale hits are impossible without any invalidation protocol.

Values are stored as pickles: experiment results are dataclasses whose
floats must round-trip *exactly* (a cached re-run has to produce
byte-identical artifacts), which JSON cannot guarantee for the general
payloads experiments return.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Any, Optional

__all__ = ["DEFAULT_CACHE_DIR", "ResultCache", "default_cache_dir"]


def default_cache_dir() -> str:
    """The sweep cache location: ``$REPRO_CACHE_DIR`` or the user cache.

    Read per call (not at import) so test harnesses can redirect the
    cache with ``monkeypatch.setenv`` after this module is imported.
    """
    return os.environ.get(
        "REPRO_CACHE_DIR", os.path.join("~", ".cache", "repro-experiments")
    )


#: default location of the sweep cache at import time (prefer
#: :func:`default_cache_dir` for a late-bound lookup).
DEFAULT_CACHE_DIR = default_cache_dir()

_MISS = object()


class ResultCache:
    """Pickle store addressed by content hash of the point's identity."""

    def __init__(self, root: "str | Path" = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        #: entries that existed but could not be unpickled; each one is
        #: also counted in ``misses``.  A nonzero value after a sweep is
        #: the signature of a damaged cache directory — surfaced so it
        #: never silently masquerades as a cold cache.
        self.corrupt = 0

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key(
        self,
        experiment_id: str,
        params: Any,
        point: Any,
        seed: int,
        version: Optional[str] = None,
    ) -> str:
        """The content hash addressing one point's result."""
        if version is None:
            from repro import __version__ as version  # lazy: avoids an import cycle
        from repro.experiments.store import to_jsonable

        material = json.dumps(
            {
                "version": version,
                "experiment": experiment_id,
                "params": to_jsonable(params),
                "point": to_jsonable(point),
                "seed": seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        """The cached value for ``key``, or None on a miss.

        A corrupt or unreadable entry counts as a miss (and is removed
        when possible) rather than poisoning the sweep.
        """
        path = self._path(key)
        value = _MISS
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            pass
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError) as exc:
            self.corrupt += 1
            warnings.warn(
                f"discarding corrupt cache entry {path.name}"
                f" ({type(exc).__name__}: {exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                path.unlink()
            except OSError:
                pass
        if value is _MISS:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically (write + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

