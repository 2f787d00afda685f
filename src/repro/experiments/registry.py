"""Experiment registry: figure ids to :class:`Experiment` instances.

Experiment modules register themselves at import time::

    @register
    class ConcurrencyExperiment(Experiment):
        id = "fig5"
        aliases = ("fig7",)
        ...

and consumers resolve them by id::

    from repro.experiments import registry
    experiment = registry.get("fig8")

Registration is what makes sweep points *dispatchable*: a worker
process receives only ``(experiment_id, params, point, seed)`` and
re-resolves the experiment in its own interpreter, so the experiment
object itself never crosses the process boundary; whether params and
points can is checked up front by ``SweepRunner._normalize_points``.
A worker is spawned, not forked, so it knows only what importing the
table's modules registers: an experiment registered at run time in
the sweeping process does not reach it.

:data:`_EXPERIMENT_MODULES` is the one place an id meets its module:
:func:`ids` reads it without importing any experiment, and :func:`get`
imports only the module the table names (tests/test_import_graph.py
holds the table equal to what the modules register).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import Experiment

__all__ = ["canonical_ids", "get", "ids", "register"]

#: every resolvable id and alias -> the module that registers it.
_EXPERIMENT_MODULES: dict[str, str] = {
    "ablations": "repro.experiments.ablation",
    "faults": "repro.experiments.faults",
    "fig1": "repro.experiments.workload_figs",
    "fig2": "repro.experiments.workload_figs",
    "fig4": "repro.experiments.motivation",
    "fig5": "repro.experiments.concurrency",
    "fig6": "repro.experiments.motivation",
    "fig7": "repro.experiments.concurrency",
    "fig8": "repro.experiments.large_scale",
    "fig9": "repro.experiments.properties",
    "fig10": "repro.experiments.fairness",
    "fig11": "repro.experiments.multihop",
    "fig12": "repro.experiments.fattree",
    "fig13a": "repro.experiments.testbed",
    "fig13be": "repro.experiments.testbed",
    "incast": "repro.experiments.incast",
    "matrix": "repro.experiments.matrix",
    "openloop": "repro.experiments.openloop",
    "table1": "repro.experiments.fattree",
}

_REGISTRY: dict[str, "Experiment"] = {}
_ALIASES: dict[str, str] = {}
_loaded = False


def register(experiment: Union["Experiment", type]) -> Union["Experiment", type]:
    """Register an experiment (usable as a class decorator).

    Returns its argument so ``@register`` above a class definition
    leaves the name bound to the class.
    """
    instance = experiment() if isinstance(experiment, type) else experiment
    if not instance.id:
        raise ValueError(f"experiment {instance!r} has no id")
    if instance.id in _REGISTRY and type(_REGISTRY[instance.id]) is not type(instance):
        raise ValueError(f"experiment id {instance.id!r} already registered")
    _REGISTRY[instance.id] = instance
    for alias in instance.aliases:
        _ALIASES[alias] = instance.id
    return experiment


def _ensure_loaded() -> None:
    """Import every module in the table."""
    global _loaded
    if _loaded:
        return
    for module in _EXPERIMENT_MODULES.values():
        importlib.import_module(module)
    _loaded = True


def get(experiment_id: str) -> "Experiment":
    """Resolve an experiment by canonical id or alias.

    Imports only the module the table names for ``experiment_id``; an
    id neither the table nor a runtime registration knows raises
    ``KeyError`` without importing anything.
    """
    module = _EXPERIMENT_MODULES.get(experiment_id)
    if module is not None:
        importlib.import_module(module)
    canonical = _ALIASES.get(experiment_id, experiment_id)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(sorted(ids()))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def canonical_ids() -> list[str]:
    """Sorted canonical experiment ids (one per experiment).

    Imports every module in the table: which ids are canonical is
    declared on the experiment classes.
    """
    _ensure_loaded()
    return sorted(_REGISTRY)


def ids() -> list[str]:
    """Sorted resolvable ids: canonical ids plus aliases."""
    return sorted(set(_EXPERIMENT_MODULES) | set(_REGISTRY) | set(_ALIASES))
