"""repro — a reproduction of TCP-TRIM (ICDCS 2016).

A packet-level discrete-event network simulator plus the TCP-TRIM
congestion-control algorithm and the baselines the paper evaluates
against (Reno, CUBIC, DCTCP, L2DCT, and a GIP-style restart).

Quickstart::

    from repro import Simulator, build_star, make_connection

    sim = Simulator()
    star = build_star(sim, n_servers=5)
    source, sink = make_connection(
        "trim", sim, star.servers[0], star.frontend, flow_id=1,
        capacity_pps=85_616,
    )
    message = source.send_bytes(128 * 1024)
    sim.run(until=1.0)
    print(f"completed in {message.completion_time * 1e3:.2f} ms")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure and table.

``import repro`` loads no other repro module: each public name, and
each subpackage (``repro.sim``, ``repro.net``, ...), is imported on
first access (PEP 562), so a process pays only for the layers it
touches.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core import SteadyStateModel, TrimSource, k_threshold, kguide
    from repro.experiments.base import Experiment, Point
    from repro.faults import FaultInjector, FaultPlan
    from repro.net import (
        Network,
        build_fat_tree,
        build_multi_hop,
        build_star,
        build_two_level_tree,
    )
    from repro.obs import CwndTimeline, QueueTimeline, Telemetry, TraceSpec
    from repro.runner import ResultCache, SweepCheckpoint, SweepRunner
    from repro.sim import (
        InvariantMonitor,
        InvariantViolation,
        RandomStreams,
        Simulator,
        derive_seed,
        seeded_rng,
    )
    from repro.tcp import (
        PROTOCOLS,
        Message,
        TcpConfig,
        TcpSink,
        TcpSource,
        create_source,
        make_connection,
    )

__version__ = "1.0.0"

#: public name -> the module it is loaded from on first access.
_LAZY = {
    "SteadyStateModel": "repro.core",
    "TrimSource": "repro.core",
    "k_threshold": "repro.core",
    "kguide": "repro.core",
    "Experiment": "repro.experiments.base",
    "Point": "repro.experiments.base",
    "FaultInjector": "repro.faults",
    "FaultPlan": "repro.faults",
    "Network": "repro.net",
    "build_fat_tree": "repro.net",
    "build_multi_hop": "repro.net",
    "build_star": "repro.net",
    "build_two_level_tree": "repro.net",
    "CwndTimeline": "repro.obs",
    "QueueTimeline": "repro.obs",
    "Telemetry": "repro.obs",
    "TraceSpec": "repro.obs",
    "ResultCache": "repro.runner",
    "SweepCheckpoint": "repro.runner",
    "SweepRunner": "repro.runner",
    "InvariantMonitor": "repro.sim",
    "InvariantViolation": "repro.sim",
    "RandomStreams": "repro.sim",
    "Simulator": "repro.sim",
    "derive_seed": "repro.sim",
    "seeded_rng": "repro.sim",
    "PROTOCOLS": "repro.tcp",
    "Message": "repro.tcp",
    "TcpConfig": "repro.tcp",
    "TcpSink": "repro.tcp",
    "TcpSource": "repro.tcp",
    "create_source": "repro.tcp",
    "make_connection": "repro.tcp",
}


def __getattr__(name: str) -> Any:
    """Load a public name, or a subpackage, on first access (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        # ``repro.sim.Simulator`` after a bare ``import repro``.
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(
                f"module 'repro' has no attribute {name!r}"
            ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups never reach __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


def get_experiment(experiment_id: str) -> Experiment:
    """Resolve a registered experiment by figure id (or alias).

    Thin wrapper over :func:`repro.experiments.registry.get`, imported
    lazily so ``import repro`` does not pull every experiment module.
    """
    from repro.experiments import registry

    return registry.get(experiment_id)


def experiment_ids() -> list[str]:
    """All resolvable experiment ids (canonical ids plus aliases)."""
    from repro.experiments import registry

    return registry.ids()


__all__ = [
    "CwndTimeline",
    "Experiment",
    "FaultInjector",
    "FaultPlan",
    "InvariantMonitor",
    "InvariantViolation",
    "Message",
    "Network",
    "PROTOCOLS",
    "Point",
    "QueueTimeline",
    "RandomStreams",
    "ResultCache",
    "Simulator",
    "SteadyStateModel",
    "SweepCheckpoint",
    "SweepRunner",
    "TcpConfig",
    "TcpSink",
    "TcpSource",
    "Telemetry",
    "TraceSpec",
    "TrimSource",
    "build_fat_tree",
    "build_multi_hop",
    "build_star",
    "build_two_level_tree",
    "create_source",
    "derive_seed",
    "seeded_rng",
    "experiment_ids",
    "get_experiment",
    "k_threshold",
    "kguide",
    "make_connection",
]
