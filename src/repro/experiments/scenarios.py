"""Shared experiment plumbing.

What a protocol needs from the scenario it runs in is worked out here
alone: :class:`ConnectionSet` takes the scenario's ``min_rto`` and the
route of the flows it measures (``Network.path(src, dst)``, a list of
links), and :func:`protocol_kwargs` turns them into the RTO config and,
for TCP-TRIM, the C and D of Eq. 22: C from the slowest hop, D from
every hop in route order.  The ECN marking threshold is switch config,
so :func:`ecn_threshold_for` is called at the topology builder.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import ACK_BYTES, MSS_BYTES
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig, TcpSink, TcpSource
from repro.tcp.factory import ECN_PROTOCOLS, default_config, make_connection

__all__ = [
    "ConnectionSet",
    "dctcp_threshold_pkts",
    "ecn_threshold_for",
    "packets_per_second",
    "path_base_rtt",
    "protocol_kwargs",
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


def packets_per_second(bandwidth_bps: float) -> float:
    """Link capacity in MSS-sized packets per second (the C of Eq. 22)."""
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth must be positive")
    return bandwidth_bps / (8.0 * MSS_BYTES)


def path_base_rtt(links: "list[tuple[float, float]]") -> float:
    """Queue-free RTT of a path given ``(delay_s, bandwidth_bps)`` links.

    Forward direction serializes a full data segment per hop; the
    reverse direction serializes an ACK.  This is the D of Eq. 22.
    """
    if not links:
        raise ValueError("a path needs at least one link")
    forward = sum(d + MSS_BYTES * 8.0 / b for d, b in links)
    reverse = sum(d + ACK_BYTES * 8.0 / b for d, b in links)
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


def protocol_kwargs(
    protocol: str, min_rto: float, path: Sequence[Link]
) -> dict[str, Any]:
    """What ``protocol`` needs from the scenario it runs in, as keyword
    arguments of :func:`~repro.tcp.factory.make_connection`.

    Every protocol gets ``config``: its default config with ``min_rto``
    as both the RTO floor and the initial RTO.  TCP-TRIM also gets the
    inputs that pin its K statically per Eq. 22, as the paper
    configures it: C (``capacity_pps``, the rate of the slowest link on
    ``path`` in packets per second) and D (``base_rtt``, the queue-free
    RTT over every link of ``path``).
    """
    kwargs: dict[str, Any] = {
        "config": default_config(protocol, min_rto=min_rto, initial_rto=min_rto)
    }
    if protocol == "trim":
        hops = [(link.delay_s, link.bandwidth_bps) for link in path]
        kwargs["base_rtt"] = path_base_rtt(hops)
        kwargs["capacity_pps"] = packets_per_second(min(b for _, b in hops))
    return kwargs


class ConnectionSet:
    """A batch of same-protocol connections in one experiment.

    Derives every connection's arguments from the scenario with
    :func:`protocol_kwargs`, assigns flow ids in creation order, tracks
    sources and sinks, and aggregates timeout counts (Table I's metric).
    """

    def __init__(
        self,
        sim: Simulator,
        protocol: str,
        min_rto: float,
        path: Sequence[Link],
    ) -> None:
        self.sim = sim
        self.protocol = protocol
        self._kwargs = protocol_kwargs(protocol, min_rto, path)
        self._warm_kwargs = {
            **self._kwargs, "config": warm_config(self._kwargs["config"])
        }
        self.sources: list[TcpSource] = []
        self.sinks: list[TcpSink] = []

    def connect(
        self, src_host: Host, dst_host: Host, *, warm: bool = False
    ) -> tuple[TcpSource, TcpSink]:
        """Open a persistent connection from ``src_host`` to ``dst_host``.

        ``warm`` starts it with :data:`WARM_SSTHRESH` (long-lived
        background flows; see :func:`warm_config`).
        """
        source, sink = make_connection(
            self.protocol,
            self.sim,
            src_host,
            dst_host,
            flow_id=len(self.sources),
            **(self._warm_kwargs if warm else self._kwargs),
        )
        self.sources.append(source)
        self.sinks.append(sink)
        return source, sink

    def connect_many(
        self, src_hosts: Iterable[Host], dst_host: Host, *, warm: bool = False
    ) -> list[TcpSource]:
        """Open one connection per source host, all towards ``dst_host``."""
        return [self.connect(h, dst_host, warm=warm)[0] for h in src_hosts]

    @property
    def total_timeouts(self) -> int:
        return sum(s.stats.timeouts for s in self.sources)

    @property
    def timeouts_per_source(self) -> list[int]:
        return [s.stats.timeouts for s in self.sources]
