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

from repro.sim.invariants import InvariantMonitor, InvariantViolation
from repro.sim.kernel import Event, SimulationError, Simulator
from repro.sim.monitor import PeriodicSampler, TimeSeries, delta_rate
from repro.sim.randomness import RandomStreams, derive_seed, seeded_rng

__all__ = [
    "Event",
    "InvariantMonitor",
    "InvariantViolation",
    "PeriodicSampler",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "TimeSeries",
    "delta_rate",
    "derive_seed",
    "seeded_rng",
]
