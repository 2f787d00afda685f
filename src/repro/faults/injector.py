"""Deterministic fault injection: compiling a plan onto the timeline.

The :class:`FaultInjector` resolves a :class:`~repro.faults.plan.FaultPlan`
against a built :class:`~repro.net.topology.Network`, attaches a seeded
:class:`LinkFaultState` to every targeted link, and schedules one kernel
event per ``(fault event, matched link)`` pair.  All stochastic
decisions — which deliveries a loss burst eats, how much jitter each
packet gets — are drawn from per-link generators derived from the
injector seed and the link *name*, so the same ``(seed, plan, topology)``
triple produces a byte-identical fault schedule and packet trace no
matter what else runs in the process.

Injected impairments are accounted separately from congestion: a queue
overflowing is the network's fault, a :class:`LossBurst` is ours, and
the metrics layer (:mod:`repro.metrics.faults`) reports the two side by
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Callable, Optional

from repro.faults.plan import (
    BackgroundSurge,
    BufferResize,
    Corrupt,
    DelayJitter,
    FaultEvent,
    FaultPlan,
    LinkDown,
    LinkUp,
    LossBurst,
)
from repro.sim.randomness import Pcg64Generator, derive_seed, seeded_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.packet import Packet
    from repro.net.topology import Network
    from repro.sim.kernel import Simulator

__all__ = ["FaultInjector", "FaultStats", "LinkFaultState", "SurgeFactory"]

#: experiments hand the injector a factory for background-surge flows:
#: called once per flow with a running surge index, it starts the flow
#: and returns a stopper callable (or None for flows that need no stop).
SurgeFactory = Callable[[int], Optional[Callable[[], None]]]


@dataclass(slots=True)
class FaultStats:
    """What the injector did to one link (or, summed, to the run)."""

    injected_drops: int = 0  # LossBurst casualties
    corrupted: int = 0  # Corrupt casualties (dropped at checksum)
    delayed: int = 0  # deliveries given DelayJitter extra delay
    down_drops: int = 0  # deliveries lost to a LinkDown outage
    evictions: int = 0  # resident packets evicted by BufferResize
    outages: int = 0  # LinkDown events applied
    surge_flows: int = 0  # background flows started

    def __add__(self, other: "FaultStats") -> "FaultStats":
        return FaultStats(
            self.injected_drops + other.injected_drops,
            self.corrupted + other.corrupted,
            self.delayed + other.delayed,
            self.down_drops + other.down_drops,
            self.evictions + other.evictions,
            self.outages + other.outages,
            self.surge_flows + other.surge_flows,
        )

    @property
    def total_losses(self) -> int:
        """Packets the injector destroyed (drops + corruption + outages)."""
        return self.injected_drops + self.corrupted + self.down_drops


class LinkFaultState:
    """Per-link impairment windows, counters, and the seeded stream.

    Attached to a :class:`~repro.net.link.Link` by the injector; the
    link consults :meth:`filter_delivery` on every delivery.  Windows
    are absolute end times; a new burst of the same type replaces the
    previous window (bursts do not stack).
    """

    __slots__ = (
        "rng",
        "stats",
        "loss_rate",
        "loss_until",
        "corrupt_rate",
        "corrupt_until",
        "jitter_mean",
        "jitter_until",
    )

    def __init__(self, rng: Pcg64Generator) -> None:
        self.rng = rng
        self.stats = FaultStats()
        self.loss_rate = 0.0
        self.loss_until = -math.inf
        self.corrupt_rate = 0.0
        self.corrupt_until = -math.inf
        self.jitter_mean = 0.0
        self.jitter_until = -math.inf

    def filter_delivery(self, pkt: "Packet", now: float) -> float:
        """Fault verdict for one delivery at time ``now``.

        Returns a negative value to destroy the packet (counters already
        updated), ``0.0`` to deliver immediately, or a positive extra
        delay in seconds.  Draws from the seeded stream happen *only*
        inside an active window, so a link with no active fault consumes
        no randomness and perturbs nothing.
        """
        if now < self.loss_until and self.rng.random() < self.loss_rate:
            self.stats.injected_drops += 1
            return -1.0
        if now < self.corrupt_until and self.rng.random() < self.corrupt_rate:
            self.stats.corrupted += 1
            return -1.0
        if now < self.jitter_until:
            extra = self.rng.exponential(self.jitter_mean)
            if extra > 0.0:
                self.stats.delayed += 1
                return extra
        return 0.0


class FaultInjector:
    """Arms a :class:`FaultPlan` against a simulator and its network.

    Typical use, inside an experiment's ``run_point``::

        injector = FaultInjector(sim, star.network, plan, seed=seed)
        injector.arm()          # before sim.run(); schedules everything
        sim.run(until=horizon)
        report = injector.total_stats()

    ``surge_factory`` is required only when the plan contains
    :class:`BackgroundSurge` events; it is called once per surge flow.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        plan: FaultPlan,
        seed: int = 0,
        surge_factory: Optional[SurgeFactory] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.plan = plan
        self.seed = seed
        self.surge_factory = surge_factory
        #: link name -> attached fault state (populated by :meth:`arm`).
        self.states: dict[str, LinkFaultState] = {}
        self._links: dict[str, "Link"] = {}
        self._surge_index = 0
        self._surge_stats = FaultStats()
        self._armed = False

    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Resolve link globs and schedule every fault event.  Idempotence
        is deliberately refused: arming twice would double every fault."""
        if self._armed:
            raise RuntimeError("FaultInjector.arm() called twice")
        self._armed = True
        for event in self.plan:
            if isinstance(event, BackgroundSurge):
                if self.surge_factory is None:
                    raise ValueError(
                        "plan contains BackgroundSurge events but no "
                        "surge_factory was provided"
                    )
                self.sim.schedule_at(event.time, self._start_surge, event)
                continue
            links = self._match(event.link)
            if not links:
                names = ", ".join(
                    sorted(link.name for link in self.network.links)
                ) or "<none>"
                raise ValueError(
                    f"fault event {event!r} matches no link; links: {names}"
                )
            for link in links:
                self._state_for(link)  # attach before anything fires
                self.sim.schedule_at(event.time, self._apply, event, link)
        return self

    def total_stats(self) -> FaultStats:
        """Injector-wide counters (all links plus surge bookkeeping)."""
        total = self._surge_stats
        for state in self.states.values():
            total = total + state.stats
        return total

    # ------------------------------------------------------------------
    def _match(self, glob: str) -> "list[Link]":
        return [link for link in self.network.links if fnmatch(link.name, glob)]

    def _state_for(self, link: "Link") -> LinkFaultState:
        state = self.states.get(link.name)
        if state is None:
            state = LinkFaultState(
                seeded_rng(derive_seed(self.seed, f"faults/{link.name}"))
            )
            self.states[link.name] = state
            self._links[link.name] = link
            link.attach_fault_state(state)
        return state

    def _apply(self, event: FaultEvent, link: "Link") -> None:
        state = self.states[link.name]
        now = self.sim.now
        if isinstance(event, LinkDown):
            state.stats.outages += 1
            link.set_down()
            self.sim.notify_fault(f"link_down {link.name}")
        elif isinstance(event, LinkUp):
            link.set_up()
            self.sim.notify_fault(f"link_up {link.name}")
        elif isinstance(event, LossBurst):
            state.loss_rate = event.rate
            state.loss_until = now + event.duration
            self.sim.notify_fault(
                f"loss_burst {link.name} rate={event.rate} for {event.duration}s"
            )
        elif isinstance(event, Corrupt):
            state.corrupt_rate = event.rate
            state.corrupt_until = now + event.duration
            self.sim.notify_fault(
                f"corrupt {link.name} rate={event.rate} for {event.duration}s"
            )
        elif isinstance(event, DelayJitter):
            state.jitter_mean = event.mean_s
            state.jitter_until = now + event.duration
            self.sim.notify_fault(
                f"delay_jitter {link.name} mean={event.mean_s}s for {event.duration}s"
            )
        elif isinstance(event, BufferResize):
            state.stats.evictions += link.queue.resize(event.pkts)
            self.sim.notify_fault(f"buffer_resize {link.name} to {event.pkts} pkts")
        else:  # pragma: no cover - plan validation forbids this
            raise TypeError(f"unhandled fault event {event!r}")

    def _start_surge(self, event: BackgroundSurge) -> None:
        assert self.surge_factory is not None
        for _ in range(event.flows):
            stopper = self.surge_factory(self._surge_index)
            self._surge_index += 1
            self._surge_stats.surge_flows += 1
            if stopper is not None and math.isfinite(event.duration):
                self.sim.schedule(event.duration, stopper)
        self.sim.notify_fault(f"background_surge {event.flows} flows")
