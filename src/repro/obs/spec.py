"""The ``--trace`` spec grammar.

A trace spec is a comma-separated list of entries::

    all                  every channel
    <channel>            enable one channel (cwnd, rtt, state, probe,
                         queue, rto, fault)
    <channel>@<N>        enable it with 1-in-N decimation (sample
                         channels only; events are never thinned)
    flow=<id>            keep flow-keyed records for this flow only
                         (repeatable; ids accumulate)
    link=<glob>          keep queue records for links matching this
                         fnmatch glob (repeatable)

Examples::

    all
    cwnd@8,queue,probe
    cwnd,probe,flow=0,flow=1
    queue,link=*->frontend

A spec with only ``flow=``/``link=`` filters enables every channel.
Parsing is strict — an unknown channel or malformed entry raises
``ValueError`` with the offending token, so the CLI can reject a bad
``--trace`` before any simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Optional

from repro.obs.records import CHANNELS, SAMPLE_CHANNELS

__all__ = ["TraceSpec"]


@dataclass(frozen=True)
class TraceSpec:
    """A parsed trace spec: enabled channels, decimation, and filters."""

    channels: frozenset[str] = frozenset(CHANNELS)
    decimation: tuple[tuple[str, int], ...] = ()
    flows: Optional[frozenset[int]] = None
    link_globs: tuple[str, ...] = ()
    _decim_map: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._decim_map.update(dict(self.decimation))

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "TraceSpec":
        """Parse the ``--trace`` grammar; raises ValueError on bad input."""
        channels: set[str] = set()
        decimation: dict[str, int] = {}
        flows: set[int] = set()
        link_globs: list[str] = []
        tokens = [tok.strip() for tok in text.split(",")]
        if not any(tokens):
            raise ValueError("empty trace spec")
        for token in tokens:
            if not token:
                continue
            if token == "all":
                channels.update(CHANNELS)
                continue
            if token.startswith("flow="):
                value = token[len("flow="):]
                try:
                    flows.add(int(value))
                except ValueError:
                    raise ValueError(
                        f"bad flow filter {token!r}: flow ids are integers"
                    ) from None
                continue
            if token.startswith("link="):
                glob = token[len("link="):]
                if not glob:
                    raise ValueError("bad link filter 'link=': empty glob")
                link_globs.append(glob)
                continue
            name, at, step_text = token.partition("@")
            if name not in CHANNELS:
                raise ValueError(
                    f"unknown trace channel {name!r}; valid channels: "
                    f"{', '.join(CHANNELS)} (or 'all')"
                )
            channels.add(name)
            if at:
                try:
                    step = int(step_text)
                except ValueError:
                    raise ValueError(
                        f"bad decimation {token!r}: expected "
                        "<channel>@<integer>"
                    ) from None
                if step < 1:
                    raise ValueError(
                        f"bad decimation {token!r}: step must be >= 1"
                    )
                if name not in SAMPLE_CHANNELS:
                    raise ValueError(
                        f"channel {name!r} records discrete events and "
                        "cannot be decimated"
                    )
                decimation[name] = step
        if not channels:
            channels.update(CHANNELS)  # filter-only spec: trace everything
        return cls(
            channels=frozenset(channels),
            decimation=tuple(sorted(decimation.items())),
            flows=frozenset(flows) if flows else None,
            link_globs=tuple(link_globs),
        )

    # ------------------------------------------------------------------
    def wants_channel(self, channel: str) -> bool:
        return channel in self.channels

    def wants_flow(self, flow: int) -> bool:
        return self.flows is None or flow in self.flows

    def wants_link(self, name: str) -> bool:
        if not self.link_globs:
            return True
        return any(fnmatchcase(name, glob) for glob in self.link_globs)

    def decimation_for(self, channel: str) -> int:
        return self._decim_map.get(channel, 1)

    def to_string(self) -> str:
        """Canonical round-trippable form of this spec."""
        parts: list[str] = []
        if self.channels == frozenset(CHANNELS) and not self._decim_map:
            parts.append("all")
        else:
            for channel in CHANNELS:
                if channel not in self.channels:
                    continue
                step = self._decim_map.get(channel, 1)
                parts.append(f"{channel}@{step}" if step > 1 else channel)
        if self.flows is not None:
            parts.extend(f"flow={flow}" for flow in sorted(self.flows))
        parts.extend(f"link={glob}" for glob in self.link_globs)
        return ",".join(parts)
