"""Fault plans: typed, schedulable fault events as plain data.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records —
link outages, loss/corruption bursts, delay jitter windows, buffer
resizes, and background-traffic surges — that the
:class:`~repro.faults.injector.FaultInjector` compiles onto a
simulator's timeline.  Plans are *data*: picklable dataclasses with a
canonical JSON form, so they cross the sweep-worker process boundary,
participate in the result-cache key, and can be committed next to the
experiment that uses them.

Every event targets links by an ``fnmatch`` glob over ``Link.name``
(``"sw->frontend"``, ``"server*->sw"``, or ``"*"``), resolved against
the experiment's topology when the injector is armed.  All randomness a
plan implies (which packet a 30% loss burst hits, how much jitter a
delivery gets) is drawn from seeded per-link streams inside the
injector — the plan itself is fully deterministic.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "BackgroundSurge",
    "BufferResize",
    "Corrupt",
    "DelayJitter",
    "FaultEvent",
    "FaultPlan",
    "LinkDown",
    "LinkUp",
    "LossBurst",
]


@dataclass(frozen=True)
class FaultEvent:
    """Base record: something happens at ``time`` to links matching ``link``."""

    time: float
    link: str = "*"

    def validate(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"{type(self).__name__}: time must be >= 0 and finite")
        if not self.link:
            raise ValueError(f"{type(self).__name__}: link glob cannot be empty")


@dataclass(frozen=True)
class LinkDown(FaultEvent):
    """Take the matched links down: transmission pauses, in-flight and
    newly transmitted packets are lost until the next :class:`LinkUp`."""


@dataclass(frozen=True)
class LinkUp(FaultEvent):
    """Bring the matched links back up and resume draining their queues."""


@dataclass(frozen=True)
class LossBurst(FaultEvent):
    """Drop each delivery with probability ``rate`` for ``duration`` seconds."""

    rate: float = 0.1
    duration: float = 0.01

    def validate(self) -> None:
        super().validate()
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("LossBurst: rate must be in (0, 1]")
        if not self.duration > 0:
            raise ValueError("LossBurst: duration must be positive")


@dataclass(frozen=True)
class Corrupt(FaultEvent):
    """Corrupt each delivery with probability ``rate`` for ``duration``
    seconds.  A corrupted packet fails its checksum at the receiver and
    is discarded — indistinguishable from loss to the transport, but
    counted separately by the injector."""

    rate: float = 0.01
    duration: float = 0.01

    def validate(self) -> None:
        super().validate()
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("Corrupt: rate must be in (0, 1]")
        if not self.duration > 0:
            raise ValueError("Corrupt: duration must be positive")


@dataclass(frozen=True)
class DelayJitter(FaultEvent):
    """Add exponentially distributed extra delay (mean ``mean_s``) to
    each delivery for ``duration`` seconds.  Jittered packets may
    reorder — exactly the stress the transport's SACK/dup-ACK machinery
    exists to absorb."""

    mean_s: float = 0.001
    duration: float = 0.01

    def validate(self) -> None:
        super().validate()
        if not self.mean_s > 0:
            raise ValueError("DelayJitter: mean_s must be positive")
        if not self.duration > 0:
            raise ValueError("DelayJitter: duration must be positive")


@dataclass(frozen=True)
class BufferResize(FaultEvent):
    """Resize the matched links' egress queues to ``pkts`` packets.
    Shrinking below the resident backlog evicts the newest packets
    (counted as ``evicted``, distinct from congestion drops)."""

    pkts: int = 8

    def validate(self) -> None:
        super().validate()
        if self.pkts < 1:
            raise ValueError("BufferResize: pkts must be >= 1")


@dataclass(frozen=True)
class BackgroundSurge(FaultEvent):
    """Start ``flows`` background traffic flows at ``time`` and stop
    them ``duration`` seconds later (never, when infinite).  The
    injector delegates flow construction to the experiment's
    ``surge_factory`` — the plan only says *when* and *how many*."""

    flows: int = 1
    duration: float = math.inf

    def validate(self) -> None:
        super().validate()
        if self.flows < 1:
            raise ValueError("BackgroundSurge: flows must be >= 1")
        if not self.duration > 0:
            raise ValueError("BackgroundSurge: duration must be positive")


#: JSON ``kind`` tag <-> event class, in a stable order.
EVENT_KINDS: dict[str, type[FaultEvent]] = {
    "link_down": LinkDown,
    "link_up": LinkUp,
    "loss_burst": LossBurst,
    "corrupt": Corrupt,
    "delay_jitter": DelayJitter,
    "buffer_resize": BufferResize,
    "background_surge": BackgroundSurge,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in EVENT_KINDS.items()}


def _parse_event(index: int, record: Any) -> FaultEvent:
    """One JSON event record, type-checked field by field."""
    if not isinstance(record, dict) or "kind" not in record:
        raise ValueError(f"fault event {index} needs a 'kind': {record!r}")
    kind = record["kind"]
    event_cls = EVENT_KINDS.get(kind) if isinstance(kind, str) else None
    if event_cls is None:
        known = ", ".join(sorted(EVENT_KINDS))
        raise ValueError(
            f"fault event {index}: unknown fault kind {kind!r}; known: {known}"
        )
    where = f"fault event {index} ({kind})"
    types = {f.name: f.type for f in dataclasses.fields(event_cls)}
    unknown = set(record) - set(types) - {"kind"}
    if unknown:
        raise ValueError(
            f"{where}: unknown field(s) {sorted(unknown)}; accepts {sorted(types)}"
        )
    if "time" not in record:
        raise ValueError(f"{where}: 'time' is required")
    kwargs = {
        name: _field_value(where, name, types[name], value)
        for name, value in record.items()
        if name != "kind"
    }
    event = event_cls(**kwargs)
    try:
        event.validate()
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return event


def _field_value(where: str, name: str, type_name: Any, value: Any) -> Any:
    """``value`` as the field's type (``float``, ``int`` or ``str``)."""
    if type_name == "str":
        if isinstance(value, str):
            return value
        raise ValueError(f"{where}: {name!r} is not a string: {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: {name!r} is not a number: {value!r}")
    if type_name == "int":
        if isinstance(value, int):
            return value
        raise ValueError(f"{where}: {name!r} is not an integer: {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{where}: {name!r} is not finite: {value!r}")
    return number


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated schedule of fault events.

    Events are stored sorted by ``(time, insertion order)`` so a plan's
    identity (and therefore the sweep cache key it contributes to) does
    not depend on authoring order.
    """

    events: tuple = ()

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"not a FaultEvent: {event!r}")
            event.validate()
        ordered = sorted(
            enumerate(self.events), key=lambda pair: (pair[1].time, pair[0])
        )
        object.__setattr__(self, "events", tuple(e for _, e in ordered))

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def scaled(self, intensity: float) -> "FaultPlan":
        """The plan with every stochastic magnitude scaled by ``intensity``.

        ``intensity=0`` yields the empty (fault-free) plan; ``1`` the
        plan as written.  Probabilities clamp at 1.  Surge flow counts
        round up so any positive intensity keeps at least one flow.
        Discrete events (outages, resizes) are kept verbatim for any
        positive intensity — there is no "30% of a link going down".
        """
        if intensity < 0:
            raise ValueError("intensity must be >= 0")
        if intensity == 0:
            return FaultPlan()
        scaled: list[FaultEvent] = []
        for event in self.events:
            if isinstance(event, LossBurst):
                scaled.append(
                    dataclasses.replace(event, rate=min(1.0, event.rate * intensity))
                )
            elif isinstance(event, Corrupt):
                scaled.append(
                    dataclasses.replace(event, rate=min(1.0, event.rate * intensity))
                )
            elif isinstance(event, DelayJitter):
                scaled.append(
                    dataclasses.replace(event, mean_s=event.mean_s * intensity)
                )
            elif isinstance(event, BackgroundSurge):
                scaled.append(
                    dataclasses.replace(
                        event, flows=max(1, math.ceil(event.flows * intensity))
                    )
                )
            else:
                scaled.append(event)
        return FaultPlan(tuple(scaled))

    # ------------------------------------------------------------------
    # JSON form
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON document (see EXPERIMENTS.md "Fault scenarios")."""
        events = []
        for event in self.events:
            record: dict[str, Any] = {"kind": _KIND_BY_TYPE[type(event)]}
            for field in dataclasses.fields(event):
                value = getattr(event, field.name)
                if isinstance(value, float) and math.isinf(value):
                    continue  # infinite duration: omitted, restored by default
                record[field.name] = value
            events.append(record)
        return json.dumps({"events": events}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse the JSON form.  Anything malformed raises a ValueError;
        one about an event names its index, its kind and the field."""
        try:
            document = json.loads(text)
        except RecursionError:  # deep nesting
            raise ValueError("fault plan JSON nests too deeply") from None
        if isinstance(document, dict):
            raw_events = document.get("events", [])
            if not isinstance(raw_events, list):
                raise ValueError(
                    f"fault plan 'events' must be a list, not {raw_events!r}"
                )
        elif isinstance(document, list):  # a bare event list is accepted
            raw_events = document
        else:
            raise ValueError("fault plan JSON must be an object or a list")
        return cls(tuple(_parse_event(i, r) for i, r in enumerate(raw_events)))

    @classmethod
    def load(cls, path: "str | Path") -> "FaultPlan":
        """Read a plan from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def dump(self, path: "str | Path") -> Path:
        """Write the canonical JSON form; returns the path written."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def of(cls, events: Iterable[FaultEvent]) -> "FaultPlan":
        """Build a plan from any iterable of events."""
        return cls(tuple(events))
