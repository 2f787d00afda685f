"""Discrete-event simulation kernel.

This subpackage is the NS2 substitute's engine: the event scheduler
(:mod:`repro.sim.kernel` — a binary heap of plain tuples plus a coarse
timer wheel and reservable keys, same ``(time, sequence)`` order as a
bare heap), seeded random-number streams (:mod:`repro.sim.randomness`), and
the *pull* side of observation (:mod:`repro.sim.monitor`): a
:class:`PeriodicSampler` polls a probe into a lossless
:class:`TimeSeries`, which is what every figure's curve is made of.
(The push side — the opt-in event trace — is :mod:`repro.obs`.)
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.invariants import InvariantMonitor as InvariantMonitor
    from repro.sim.invariants import InvariantViolation as InvariantViolation
    from repro.sim.kernel import Event as Event
    from repro.sim.kernel import SimulationError as SimulationError
    from repro.sim.kernel import Simulator as Simulator
    from repro.sim.monitor import PeriodicSampler as PeriodicSampler
    from repro.sim.monitor import TimeSeries as TimeSeries
    from repro.sim.monitor import delta_rate as delta_rate
    from repro.sim.randomness import RandomStreams as RandomStreams
    from repro.sim.randomness import derive_seed as derive_seed
    from repro.sim.randomness import seeded_rng as seeded_rng

_lazy_exports(__name__, {
    "InvariantMonitor": "repro.sim.invariants",
    "InvariantViolation": "repro.sim.invariants",
    "Event": "repro.sim.kernel",
    "SimulationError": "repro.sim.kernel",
    "Simulator": "repro.sim.kernel",
    "PeriodicSampler": "repro.sim.monitor",
    "TimeSeries": "repro.sim.monitor",
    "delta_rate": "repro.sim.monitor",
    "RandomStreams": "repro.sim.randomness",
    "derive_seed": "repro.sim.randomness",
    "seeded_rng": "repro.sim.randomness",
})
