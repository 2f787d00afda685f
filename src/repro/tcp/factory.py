"""Protocol registry: build a sender by name.

Experiments select protocols with strings (``"reno"``, ``"trim"``, ...)
so sweeps over protocols are data, not code.  The registry names each
protocol's module and class, and a sender's module is imported when its
protocol is first built, so a run loads only the protocols it runs.
TCP-TRIM itself lives in :mod:`repro.core.trim`; naming it here by
module keeps the substrate free of an import of the contribution.
"""

from __future__ import annotations

import importlib
from types import MappingProxyType
from typing import Any, Optional, Type

from repro.net.node import Host
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig, TcpSink, TcpSource

__all__ = [
    "ECN_PROTOCOLS",
    "PROTOCOLS",
    "make_connection",
    "source_class",
]

#: protocol name -> (module, class) of its sender.
PROTOCOLS = MappingProxyType({
    "reno": ("repro.tcp.reno", "RenoSource"),
    "cubic": ("repro.tcp.cubic", "CubicSource"),
    "dctcp": ("repro.tcp.dctcp", "DctcpSource"),
    "l2dct": ("repro.tcp.l2dct", "L2dctSource"),
    "gip": ("repro.tcp.gip", "GipSource"),
    "vegas": ("repro.tcp.vegas", "VegasSource"),
    "d2tcp": ("repro.tcp.d2tcp", "D2tcpSource"),
    "tinybuffer": ("repro.tcp.tinybuffer", "TinyBufferSource"),
    "tracks": ("repro.tcp.tracks", "TracksSource"),
    "trim": ("repro.core.trim", "TrimSource"),
})

#: protocols that need the network built with an ECN marking threshold
ECN_PROTOCOLS = frozenset({"dctcp", "l2dct", "d2tcp"})


def source_class(protocol: str) -> Type[TcpSource]:
    """The sender class registered under ``protocol``."""
    try:
        module, name = PROTOCOLS[protocol]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS))
        raise ValueError(f"unknown protocol {protocol!r}; known: {known}") from None
    cls: Type[TcpSource] = getattr(importlib.import_module(module), name)
    return cls


def default_config(protocol: str, **overrides: Any) -> TcpConfig:
    """A TcpConfig suited to ``protocol``.

    ECN protocols get ECT set; CUBIC models Linux and therefore gets
    NewReno-style partial-ACK recovery (a stand-in for SACK recovery —
    plain-Reno multi-loss windows would stall on RTOs that the real
    Linux stack avoids).  Tiny Buffer TCP is paced by definition and
    marks ECT so fairness queues can feed its rate estimator early.
    T-RACKs replaces duplicate-ACK counting with time-based detection:
    the threshold is pushed beyond any window (recovery is entered only
    through the RACK machinery) and partial-ACK repair is kept for
    multi-loss windows.
    """
    if protocol in ECN_PROTOCOLS:
        overrides.setdefault("ecn_capable", True)
    if protocol == "cubic":
        overrides.setdefault("recovery", "newreno")
    if protocol == "tinybuffer":
        overrides.setdefault("pacing", True)
        overrides.setdefault("ecn_capable", True)
        overrides.setdefault("recovery", "newreno")
    if protocol == "tracks":
        overrides.setdefault("dupack_threshold", 1 << 30)
        overrides.setdefault("recovery", "newreno")
    return TcpConfig(**overrides)


def make_connection(
    protocol: str,
    sim: Simulator,
    src_host: Host,
    dst_host: Host,
    *,
    flow_id: int = 1,
    config: Optional[TcpConfig] = None,
    **source_kwargs: Any,
) -> tuple[TcpSource, TcpSink]:
    """Wire a ``protocol`` source on ``src_host`` to a fresh sink on
    ``dst_host``.

    Protocol first, then sim and hosts, then keyword-only
    ``flow_id``/``config`` (``default_config(protocol)`` when omitted)
    and protocol extras (``capacity_pps=``, ``base_rtt=``...).
    """
    if config is None:
        config = default_config(protocol)
    source = source_class(protocol)(
        sim, src_host, flow_id, dst_host.node_id, config=config, **source_kwargs
    )
    sink = TcpSink(sim, dst_host, flow_id=flow_id)
    return source, sink
