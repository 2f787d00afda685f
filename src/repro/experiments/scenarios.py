"""Shared experiment plumbing.

Every experiment needs the same glue: packets-per-second conversion for
TCP-TRIM's ``capacity_pps``, an ECN threshold when DCTCP/L2DCT runs, a
connection factory that passes each protocol what it needs, and a
timeout tally across all senders.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from repro.net.node import Host
from repro.net.packet import MSS_BYTES
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig, TcpSink, TcpSource
from repro.tcp.factory import ECN_PROTOCOLS, create_source, default_config

__all__ = [
    "ConnectionSet",
    "dctcp_threshold_pkts",
    "ecn_threshold_for",
    "packets_per_second",
    "path_base_rtt",
    "run_until",
    "warm_config",
]

#: default warm-start slow-start threshold for long-lived background
#: flows.  A fresh flow with an effectively infinite ssthresh slow-starts
#: into a whole-window loss and a long RTO stall; NS2 experiments avoid
#: this startup artifact by configuring a moderate initial ssthresh on
#: the background (long-train) senders, which is what the paper's steady
#: saw-tooth queues (Fig. 9a) imply.  Foreground/SPT connections keep
#: the protocol default — their slow start IS the phenomenon under test.
WARM_SSTHRESH = 64.0


def warm_config(config: TcpConfig, ssthresh: float = WARM_SSTHRESH) -> TcpConfig:
    """A copy of ``config`` with a warm-started slow-start threshold."""
    return replace(config, initial_ssthresh=ssthresh)


def run_until(
    sim: Simulator,
    predicate: Callable[[], bool],
    deadline: float,
    step: float = 0.05,
) -> bool:
    """Advance the simulation until ``predicate()`` or ``deadline``.

    Returns True when the predicate became true.  Used by experiments
    that finish when "all transfers complete" without a fixed horizon.
    """
    if deadline < sim.now:
        raise ValueError("deadline is in the past")
    while not predicate():
        if sim.now >= deadline:
            return False
        if sim.peek_time() is None:
            # The event heap is empty: no callback can ever flip the
            # predicate, so jump straight to the deadline instead of
            # busy-stepping in `step` increments until it.
            sim.run(until=deadline)
            return bool(predicate())
        sim.run(until=min(sim.now + step, deadline))
    return True


def packets_per_second(bandwidth_bps: float, mss_bytes: int = MSS_BYTES) -> float:
    """Link capacity in MSS-sized packets per second (the C of Eq. 22)."""
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth must be positive")
    return bandwidth_bps / (8.0 * mss_bytes)


def path_base_rtt(
    links: "list[tuple[float, float]]",
    mss_bytes: int = MSS_BYTES,
    ack_bytes: int = 40,
) -> float:
    """Queue-free RTT of a path given ``(delay_s, bandwidth_bps)`` links.

    Forward direction serializes a full data segment per hop; the
    reverse direction serializes an ACK.  This is the D of Eq. 22.
    """
    if not links:
        raise ValueError("a path needs at least one link")
    forward = sum(d + mss_bytes * 8.0 / b for d, b in links)
    reverse = sum(d + ack_bytes * 8.0 / b for d, b in links)
    return forward + reverse


def dctcp_threshold_pkts(bandwidth_bps: float) -> int:
    """The DCTCP paper's marking-threshold guideline: K = 20 packets at
    1 Gbps and K = 65 at 10 Gbps.  Interpolated as a power law
    (exponent log(65/20)/log(10) ≈ 0.512) — linear scaling would put K
    above the path BDP at 10 Gbps and disable DCTCP's early signal."""
    return max(5, round(20 * (bandwidth_bps / 1e9) ** 0.512))


def ecn_threshold_for(protocol: str, bandwidth_bps: float) -> Optional[int]:
    """Marking threshold a network needs for ``protocol`` (None if n/a)."""
    if protocol in ECN_PROTOCOLS:
        return dctcp_threshold_pkts(bandwidth_bps)
    return None


@dataclass
class ConnectionSet:
    """A batch of same-protocol connections in one experiment.

    Tracks sources and sinks, assigns flow ids, passes TCP-TRIM its
    ``capacity_pps``, and aggregates timeout counts (Table I's metric).
    """

    sim: Simulator
    protocol: str
    config: Optional[TcpConfig] = None
    capacity_pps: Optional[float] = None
    #: queue-free RTT of the scenario's paths; with ``capacity_pps`` it
    #: pins TCP-TRIM's K statically per Eq. 22, as the paper configures.
    base_rtt: Optional[float] = None
    sources: list[TcpSource] = field(default_factory=list)
    sinks: list[TcpSink] = field(default_factory=list)
    _next_flow_id: int = 0

    def connect(
        self,
        src_host: Host,
        dst_host: Host,
        *,
        config: Optional[TcpConfig] = None,
    ) -> tuple[TcpSource, TcpSink]:
        """Open a persistent connection from ``src_host`` to ``dst_host``.

        ``config`` overrides the set-wide config for this connection
        (e.g. a warm-started ssthresh for long-lived background flows).
        """
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        kwargs = {}
        if self.protocol == "trim":
            if self.capacity_pps is not None:
                kwargs["capacity_pps"] = self.capacity_pps
            if self.base_rtt is not None:
                kwargs["base_rtt"] = self.base_rtt
        if config is None:
            config = self.config
        if config is None:
            config = default_config(self.protocol)
        source = create_source(
            self.protocol,
            self.sim,
            src_host,
            dst_host.node_id,
            flow_id=flow_id,
            config=config,
            **kwargs,
        )
        sink = TcpSink(self.sim, dst_host, flow_id=flow_id)
        self.sources.append(source)
        self.sinks.append(sink)
        return source, sink

    def connect_many(
        self,
        src_hosts: Iterable[Host],
        dst_host: Host,
        *,
        config: Optional[TcpConfig] = None,
    ) -> list[TcpSource]:
        """Open one connection per source host, all towards ``dst_host``."""
        return [self.connect(h, dst_host, config=config)[0] for h in src_hosts]

    @property
    def total_timeouts(self) -> int:
        return sum(s.stats.timeouts for s in self.sources)

    @property
    def timeouts_per_source(self) -> list[int]:
        return [s.stats.timeouts for s in self.sources]
