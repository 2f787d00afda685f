"""Topology construction.

:class:`Network` is the container an experiment builds: it owns the
simulator's nodes and links and knows how to wire duplex cables and
compute routes.  The module also provides the four topologies the paper
evaluates on:

* :func:`build_star` — the many-to-one scenario of Sections II.B and
  IV.A/IV.B (N servers and a front-end behind one switch).
* :func:`build_two_level_tree` — the large-scale topology of Fig. 8(a)
  (edge switches × 42 servers behind a fabric switch).
* :func:`build_multi_hop` — the two-bottleneck topology of Fig. 11(a).
* :func:`build_fat_tree` — the k-ary fat-tree of Section IV.C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.link import Link
from repro.net.node import Host, Node, Switch
from repro.net.queues import DropTailQueue, EcnQueue
from repro.net.routing import build_routing_tables
from repro.sim.kernel import Simulator

__all__ = [
    "FatTree",
    "MultiHopTopology",
    "Network",
    "StarTopology",
    "TwoLevelTree",
    "build_fat_tree",
    "build_multi_hop",
    "build_star",
    "build_two_level_tree",
]

class Network:
    """A set of nodes and links on one simulator."""

    def __init__(self, sim: Simulator, ecn_threshold_pkts: Optional[int] = None) -> None:
        self.sim = sim
        self.nodes: list[Node] = []
        self.links: list[Link] = []
        self._next_id = 0
        #: When set, every switch egress queue marks ECN at this threshold
        #: (needed by DCTCP/L2DCT runs; harmless for non-ECN-capable flows).
        self.ecn_threshold_pkts = ecn_threshold_pkts

    # ------------------------------------------------------------------
    def add_host(self, name: str = "") -> Host:
        host = Host(self.sim, self._next_id, name)
        self._next_id += 1
        self.nodes.append(host)
        return host

    def add_switch(self, name: str = "") -> Switch:
        switch = Switch(self.sim, self._next_id, name)
        self._next_id += 1
        self.nodes.append(switch)
        return switch

    def connect(
        self,
        a: Node,
        b: Node,
        bandwidth_bps: float,
        delay_s: float,
        buffer_pkts: Optional[int] = None,
    ) -> tuple[Link, Link]:
        """Wire a duplex cable: two independent unidirectional links.

        ``buffer_pkts`` sizes both egress queues, the host's NIC queue
        included — how NS2 sizes per-link drop-tail queues, so a sender
        dumping a whole inherited window can lose packets at its own
        access queue as well as at the shared bottleneck, exactly as in
        the paper's simulations.  Switch queues mark ECN when the
        network was built with ``ecn_threshold_pkts``; host queues never
        mark.
        """
        forward = self._make_link(a, b, bandwidth_bps, delay_s, buffer_pkts)
        reverse = self._make_link(b, a, bandwidth_bps, delay_s, buffer_pkts)
        return forward, reverse

    def _make_link(
        self,
        src: Node,
        dst: Node,
        bandwidth_bps: float,
        delay_s: float,
        buffer_pkts: Optional[int],
    ) -> Link:
        name = f"{src.name}->{dst.name}"
        capacity = buffer_pkts if buffer_pkts is not None else 100
        if isinstance(src, Switch):
            if self.ecn_threshold_pkts is not None:
                queue = EcnQueue(
                    capacity, min(self.ecn_threshold_pkts, capacity), name=name
                )
            else:
                queue = DropTailQueue(capacity, name=name)
        else:
            queue = DropTailQueue(capacity, name=name)
        link = Link(self.sim, src, dst, bandwidth_bps, delay_s, queue, name=name)
        src.attach_link(link)
        self.links.append(link)
        return link

    def finalize_routes(self) -> None:
        """Compute all switch routing tables.  Call after wiring."""
        build_routing_tables(self.nodes)

    def link_between(self, a: Node, b: Node) -> Link:
        """The egress link from ``a`` towards ``b``."""
        link = a.egress.get(b.node_id)
        if link is None:
            raise KeyError(f"no link {a.name} -> {b.name}")
        return link

    def total_dropped(self) -> int:
        """Sum of packets dropped at every queue in the network."""
        return sum(link.queue.stats.dropped for link in self.links)


# ----------------------------------------------------------------------
# Star (many-to-one) — Sections II.B, IV.A, IV.B
# ----------------------------------------------------------------------

@dataclass
class StarTopology:
    network: Network
    switch: Switch
    frontend: Host
    servers: list[Host]
    bottleneck: Link = field(init=False)

    def __post_init__(self) -> None:
        self.bottleneck = self.network.link_between(self.switch, self.frontend)


def build_star(
    sim: Simulator,
    n_servers: int,
    bandwidth_bps: float = 1e9,
    delay_s: float = 50e-6,
    buffer_pkts: int = 100,
    frontend_bandwidth_bps: Optional[float] = None,
    frontend_delay_s: Optional[float] = None,
    ecn_threshold_pkts: Optional[int] = None,
) -> StarTopology:
    """N servers and one front-end, all hanging off a single switch.

    The paper's default: 1 Gbps links with 50 µs one-way latency and a
    100-packet switch buffer; the switch→front-end port is the
    bottleneck for many-to-one traffic.
    """
    if n_servers < 1:
        raise ValueError("need at least one server")
    net = Network(sim, ecn_threshold_pkts=ecn_threshold_pkts)
    switch = net.add_switch("sw")
    frontend = net.add_host("frontend")
    net.connect(
        switch,
        frontend,
        frontend_bandwidth_bps or bandwidth_bps,
        frontend_delay_s if frontend_delay_s is not None else delay_s,
        buffer_pkts,
    )
    servers = []
    for i in range(n_servers):
        server = net.add_host(f"server{i}")
        net.connect(server, switch, bandwidth_bps, delay_s, buffer_pkts)
        servers.append(server)
    net.finalize_routes()
    return StarTopology(net, switch, frontend, servers)


# ----------------------------------------------------------------------
# Two-level tree — Fig. 8(a)
# ----------------------------------------------------------------------

@dataclass
class TwoLevelTree:
    network: Network
    fabric: Switch
    frontend: Host
    edge_switches: list[Switch]
    #: servers grouped by their edge switch
    server_groups: list[list[Host]]

    @property
    def servers(self) -> list[Host]:
        return [s for group in self.server_groups for s in group]


def build_two_level_tree(
    sim: Simulator,
    n_switches: int,
    servers_per_switch: int = 42,
    edge_bandwidth_bps: float = 1e9,
    edge_delay_s: float = 20e-6,
    frontend_bandwidth_bps: float = 10e9,
    frontend_delay_s: float = 10e-6,
    buffer_pkts: int = 100,
    ecn_threshold_pkts: Optional[int] = None,
) -> TwoLevelTree:
    """Fig. 8(a): edge switches × servers behind a fabric switch.

    All links are 1 Gbps / 20 µs except the fabric→front-end cable
    (10 Gbps / 10 µs).
    """
    net = Network(sim, ecn_threshold_pkts=ecn_threshold_pkts)
    fabric = net.add_switch("fabric")
    frontend = net.add_host("frontend")
    net.connect(
        fabric,
        frontend,
        frontend_bandwidth_bps,
        frontend_delay_s,
        buffer_pkts,
    )
    edge_switches: list[Switch] = []
    server_groups: list[list[Host]] = []
    for s in range(n_switches):
        edge = net.add_switch(f"edge{s}")
        net.connect(edge, fabric, edge_bandwidth_bps, edge_delay_s, buffer_pkts)
        group = []
        for i in range(servers_per_switch):
            server = net.add_host(f"s{s}h{i}")
            net.connect(server, edge, edge_bandwidth_bps, edge_delay_s, buffer_pkts)
            group.append(server)
        edge_switches.append(edge)
        server_groups.append(group)
    net.finalize_routes()
    return TwoLevelTree(net, fabric, frontend, edge_switches, server_groups)


# ----------------------------------------------------------------------
# Multi-hop, two-bottleneck — Fig. 11(a)
# ----------------------------------------------------------------------

@dataclass
class MultiHopTopology:
    network: Network
    switch1: Switch
    switch2: Switch
    frontend: Host
    group_a: list[Host]  # senders at switch1, cross both bottlenecks
    group_b: list[Host]  # senders at switch2, cross the second bottleneck
    group_c: list[Host]  # senders at switch1, cross the first bottleneck
    group_d: list[Host]  # receivers at switch2 for group C


def build_multi_hop(
    sim: Simulator,
    group_size: int = 10,
    host_bandwidth_bps: float = 1e9,
    host_delay_s: float = 20e-6,
    trunk_bandwidth_bps: float = 10e9,
    trunk_delay_s: float = 10e-6,
    buffer_pkts: int = 100,
    trunk_buffer_pkts: int = 250,
    ecn_threshold_pkts: Optional[int] = None,
) -> MultiHopTopology:
    """Fig. 11(a): groups A and C feed switch 1; the switch1→switch2 and
    switch2→front-end 10 Gbps trunks are both oversubscribed."""
    net = Network(sim, ecn_threshold_pkts=ecn_threshold_pkts)
    switch1 = net.add_switch("sw1")
    switch2 = net.add_switch("sw2")
    frontend = net.add_host("frontend")
    net.connect(switch1, switch2, trunk_bandwidth_bps, trunk_delay_s, trunk_buffer_pkts)
    net.connect(switch2, frontend, trunk_bandwidth_bps, trunk_delay_s, trunk_buffer_pkts)

    def hosts(prefix: str, switch: Switch) -> list[Host]:
        out = []
        for i in range(group_size):
            host = net.add_host(f"{prefix}{i}")
            net.connect(host, switch, host_bandwidth_bps, host_delay_s, buffer_pkts)
            out.append(host)
        return out

    group_a = hosts("a", switch1)
    group_c = hosts("c", switch1)
    group_b = hosts("b", switch2)
    group_d = hosts("d", switch2)
    net.finalize_routes()
    return MultiHopTopology(
        net, switch1, switch2, frontend, group_a, group_b, group_c, group_d
    )


# ----------------------------------------------------------------------
# k-ary fat-tree — Section IV.C
# ----------------------------------------------------------------------

@dataclass
class FatTree:
    network: Network
    k: int
    core: list[Switch]
    aggregation: list[list[Switch]]  # per pod
    edge: list[list[Switch]]  # per pod
    hosts: list[Host]


def build_fat_tree(
    sim: Simulator,
    k: int,
    bandwidth_bps: float = 10e9,
    delay_s: float = 10e-6,
    buffer_pkts: int = 245,
    ecn_threshold_pkts: Optional[int] = None,
) -> FatTree:
    """Standard k-ary fat-tree: k pods, (k/2)² hosts per pod, (k/2)² cores.

    The paper uses 10 Gbps links and 350 KB buffers; 350 KB / 1460 B ≈
    245 packets, hence the default ``buffer_pkts``.  ECMP spreads flows
    across the equal-cost core paths by flow-id hash.
    """
    if k < 2 or k % 2:
        raise ValueError("fat-tree requires an even k >= 2")
    net = Network(sim, ecn_threshold_pkts=ecn_threshold_pkts)
    half = k // 2

    core = [net.add_switch(f"core{i}") for i in range(half * half)]
    aggregation: list[list[Switch]] = []
    edge: list[list[Switch]] = []
    hosts: list[Host] = []

    for pod in range(k):
        aggs = [net.add_switch(f"p{pod}a{i}") for i in range(half)]
        edges = [net.add_switch(f"p{pod}e{i}") for i in range(half)]
        aggregation.append(aggs)
        edge.append(edges)
        for agg in aggs:
            for edge_sw in edges:
                net.connect(agg, edge_sw, bandwidth_bps, delay_s, buffer_pkts)
        # Aggregation switch i connects to cores [i*half, (i+1)*half).
        for i, agg in enumerate(aggs):
            for j in range(half):
                net.connect(core[i * half + j], agg, bandwidth_bps, delay_s, buffer_pkts)
        for e, edge_sw in enumerate(edges):
            for h in range(half):
                host = net.add_host(f"p{pod}e{e}h{h}")
                net.connect(host, edge_sw, bandwidth_bps, delay_s, buffer_pkts)
                hosts.append(host)

    net.finalize_routes()
    return FatTree(net, k, core, aggregation, edge, hosts)
