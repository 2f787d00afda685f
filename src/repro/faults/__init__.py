"""Deterministic, schedule-driven fault injection.

The subsystem splits into plans-as-data and their execution:

* :mod:`repro.faults.plan` — typed :class:`FaultEvent` records
  (:class:`LinkDown`/:class:`LinkUp`, :class:`LossBurst`,
  :class:`Corrupt`, :class:`DelayJitter`, :class:`BufferResize`,
  :class:`BackgroundSurge`) collected into an immutable, JSON-round-
  tripping :class:`FaultPlan`;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` that
  compiles a plan onto a simulator's timeline against a built topology,
  with per-link seeded randomness and per-fault accounting
  (:class:`FaultStats`).

Never mutate link state or queue capacities directly to model failures —
simlint's SIM008 flags that; express the failure as a plan event so it
is seeded, scheduled, and counted.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector as FaultInjector
    from repro.faults.injector import FaultStats as FaultStats
    from repro.faults.injector import LinkFaultState as LinkFaultState
    from repro.faults.injector import SurgeFactory as SurgeFactory
    from repro.faults.plan import BackgroundSurge as BackgroundSurge
    from repro.faults.plan import BufferResize as BufferResize
    from repro.faults.plan import Corrupt as Corrupt
    from repro.faults.plan import DelayJitter as DelayJitter
    from repro.faults.plan import FaultEvent as FaultEvent
    from repro.faults.plan import FaultPlan as FaultPlan
    from repro.faults.plan import LinkDown as LinkDown
    from repro.faults.plan import LinkUp as LinkUp
    from repro.faults.plan import LossBurst as LossBurst

_lazy_exports(__name__, {
    "FaultInjector": "repro.faults.injector",
    "FaultStats": "repro.faults.injector",
    "LinkFaultState": "repro.faults.injector",
    "SurgeFactory": "repro.faults.injector",
    "BackgroundSurge": "repro.faults.plan",
    "BufferResize": "repro.faults.plan",
    "Corrupt": "repro.faults.plan",
    "DelayJitter": "repro.faults.plan",
    "FaultEvent": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "LinkDown": "repro.faults.plan",
    "LinkUp": "repro.faults.plan",
    "LossBurst": "repro.faults.plan",
})
