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
import sys
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core import kguide as kguide
    from repro.core.kguide import k_threshold as k_threshold
    from repro.core.model import SteadyStateModel as SteadyStateModel
    from repro.core.trim import TrimSource as TrimSource
    from repro.experiments.base import Experiment as Experiment
    from repro.experiments.base import Point as Point
    from repro.faults.injector import FaultInjector as FaultInjector
    from repro.faults.plan import FaultPlan as FaultPlan
    from repro.net.topology import Network as Network
    from repro.net.topology import build_fat_tree as build_fat_tree
    from repro.net.topology import build_multi_hop as build_multi_hop
    from repro.net.topology import build_star as build_star
    from repro.net.topology import build_two_level_tree as build_two_level_tree
    from repro.obs.spec import TraceSpec as TraceSpec
    from repro.obs.telemetry import Telemetry as Telemetry
    from repro.obs.timeline import CwndTimeline as CwndTimeline
    from repro.obs.timeline import QueueTimeline as QueueTimeline
    from repro.runner.cache import ResultCache as ResultCache
    from repro.runner.checkpoint import SweepCheckpoint as SweepCheckpoint
    from repro.runner.engine import SweepRunner as SweepRunner
    from repro.sim.invariants import InvariantMonitor as InvariantMonitor
    from repro.sim.invariants import InvariantViolation as InvariantViolation
    from repro.sim.kernel import Simulator as Simulator
    from repro.sim.randomness import RandomStreams as RandomStreams
    from repro.sim.randomness import derive_seed as derive_seed
    from repro.sim.randomness import seeded_rng as seeded_rng
    from repro.tcp.base import Message as Message
    from repro.tcp.base import TcpConfig as TcpConfig
    from repro.tcp.base import TcpSink as TcpSink
    from repro.tcp.base import TcpSource as TcpSource
    from repro.tcp.factory import PROTOCOLS as PROTOCOLS
    from repro.tcp.factory import create_source as create_source
    from repro.tcp.factory import make_connection as make_connection

__version__ = "1.0.0"


def _lazy_exports(package: str, table: dict[str, str]) -> None:
    """Make ``package`` load its public names on first access (PEP 562).

    ``table`` maps each public name to the module that defines it; a
    name that is that module's own last component (``"kguide":
    "repro.core.kguide"``) is the module itself.  Any other attribute
    is tried as a submodule, so ``repro.sim.Simulator`` works after a
    bare ``import repro``.  A resolved name is stored in the package,
    so later lookups never reach the hook.  The table stays readable
    as the package's ``_LAZY``, and its names join the package's
    ``__all__``.  Every package ``__init__`` calls this one function
    and imports the same names under ``TYPE_CHECKING`` (``X as X``, the
    explicit re-export) for static tools.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = table.get(name, f"{package}.{name}")
        try:
            value = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if name in table or exc.name != module:
                raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module.rpartition(".")[2] != name:
            value = getattr(value, name)
        namespace[name] = value  # later lookups never reach __getattr__
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    namespace.update(
        __getattr__=__getattr__,
        __dir__=__dir__,
        __all__=sorted({*namespace.get("__all__", ()), *table}),
        _LAZY=MappingProxyType(table),
    )


__all__ = ["experiment_ids", "get_experiment"]  # and every name below

_lazy_exports(__name__, {
    "SteadyStateModel": "repro.core.model",
    "TrimSource": "repro.core.trim",
    "k_threshold": "repro.core.kguide",
    "kguide": "repro.core.kguide",
    "Experiment": "repro.experiments.base",
    "Point": "repro.experiments.base",
    "FaultInjector": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "Network": "repro.net.topology",
    "build_fat_tree": "repro.net.topology",
    "build_multi_hop": "repro.net.topology",
    "build_star": "repro.net.topology",
    "build_two_level_tree": "repro.net.topology",
    "CwndTimeline": "repro.obs.timeline",
    "QueueTimeline": "repro.obs.timeline",
    "Telemetry": "repro.obs.telemetry",
    "TraceSpec": "repro.obs.spec",
    "ResultCache": "repro.runner.cache",
    "SweepCheckpoint": "repro.runner.checkpoint",
    "SweepRunner": "repro.runner.engine",
    "InvariantMonitor": "repro.sim.invariants",
    "InvariantViolation": "repro.sim.invariants",
    "RandomStreams": "repro.sim.randomness",
    "Simulator": "repro.sim.kernel",
    "derive_seed": "repro.sim.randomness",
    "seeded_rng": "repro.sim.randomness",
    "PROTOCOLS": "repro.tcp.factory",
    "Message": "repro.tcp.base",
    "TcpConfig": "repro.tcp.base",
    "TcpSink": "repro.tcp.base",
    "TcpSource": "repro.tcp.base",
    "create_source": "repro.tcp.factory",
    "make_connection": "repro.tcp.factory",
})


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

