"""Network substrate: packets, queues, links, nodes, routing, topologies.

This is the data-plane of the NS2 substitute.  A :class:`~repro.net.topology.Network`
owns hosts, switches, and unidirectional links; each link serializes
packets at its configured bandwidth through a drop-tail (optionally
ECN-marking) queue and delivers them after a propagation delay.
"""

from repro.net.link import Link, LinkStats
from repro.net.node import Host, Node, Switch
from repro.net.packet import ACK_BYTES, MSS_BYTES, Packet
from repro.net.queues import (
    DropTailQueue,
    EcnQueue,
    FairQueue,
    QueueStats,
    RedQueue,
)
from repro.net.routing import build_routing_tables
from repro.net.topology import (
    FatTree,
    MultiHopTopology,
    Network,
    StarTopology,
    TwoLevelTree,
    build_fat_tree,
    build_multi_hop,
    build_star,
    build_two_level_tree,
)

__all__ = [
    "ACK_BYTES",
    "DropTailQueue",
    "EcnQueue",
    "FairQueue",
    "FatTree",
    "Host",
    "Link",
    "LinkStats",
    "MSS_BYTES",
    "MultiHopTopology",
    "Network",
    "Node",
    "Packet",
    "QueueStats",
    "RedQueue",
    "StarTopology",
    "Switch",
    "TwoLevelTree",
    "build_fat_tree",
    "build_multi_hop",
    "build_routing_tables",
    "build_star",
    "build_two_level_tree",
]
