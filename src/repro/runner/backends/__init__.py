"""Pluggable execution backends for :class:`~repro.runner.engine.SweepRunner`.

Two implementations ship with the runner:

============ =================================================================
``serial``    in-process, zero overhead, no registry requirement — the
              debugging default under ``--jobs 1``
``process``   :class:`~concurrent.futures.ProcessPoolExecutor` fan-out to
              spawned workers (fresh interpreters that exit with their
              parent) with pickle result transport, replacing a pool a
              dead worker broke — the parallel backend
============ =================================================================

All backends honor the same determinism contract: byte-identical merged
payloads for any backend and any ``--jobs``.  See
:class:`~repro.runner.backends.base.SweepBackend` for the protocol and
CONTRIBUTING.md for how to implement one.

Each backend is a row of :data:`BACKENDS`, and :func:`create_backend`
imports only the module of the one it is given: a serial sweep never
loads the process pool (nor ``multiprocessing``);
tests/test_import_graph.py checks it.  Another backend (a multi-host
fleet, say) plugs in as a :class:`SweepBackend` instance handed to
:class:`~repro.runner.engine.SweepRunner`.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.backends.base import PointSpec as PointSpec
    from repro.runner.backends.base import SweepBackend as SweepBackend
    from repro.runner.backends.base import execute_point as execute_point
    from repro.runner.backends.base import resolve_experiment as resolve_experiment
    from repro.runner.backends.pool import ProcessPoolBackend as ProcessPoolBackend
    from repro.runner.backends.serial import SerialBackend as SerialBackend

__all__ = ["BACKENDS", "create_backend"]  # and every name below

_lazy_exports(__name__, {
    "PointSpec": "repro.runner.backends.base",
    "SweepBackend": "repro.runner.backends.base",
    "execute_point": "repro.runner.backends.base",
    "resolve_experiment": "repro.runner.backends.base",
    "ProcessPoolBackend": "repro.runner.backends.pool",
    "SerialBackend": "repro.runner.backends.serial",
})

#: name -> (module, class), the CLI's ``--backend`` choices; a backend's
#: module is imported only when it is named.
BACKENDS: dict[str, tuple[str, str]] = {
    "serial": ("repro.runner.backends.serial", "SerialBackend"),
    "process": ("repro.runner.backends.pool", "ProcessPoolBackend"),
}


def create_backend(name: str, **kwargs: object) -> SweepBackend:
    """Instantiate a named backend (``serial`` or ``process``)."""
    try:
        module, cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(BACKENDS)
        raise ValueError(f"unknown sweep backend {name!r} (known: {known})") from None
    backend: SweepBackend = getattr(importlib.import_module(module), cls)(**kwargs)
    return backend
