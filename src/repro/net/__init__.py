"""Network substrate: packets, queues, links, nodes, routing, topologies.

This is the data-plane of the NS2 substitute.  A :class:`~repro.net.topology.Network`
owns hosts, switches, and unidirectional links; each link serializes
packets at its configured bandwidth through a drop-tail (optionally
ECN-marking) queue and delivers them after a propagation delay.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link as Link
    from repro.net.link import LinkStats as LinkStats
    from repro.net.node import Host as Host
    from repro.net.node import Node as Node
    from repro.net.node import Switch as Switch
    from repro.net.packet import ACK_BYTES as ACK_BYTES
    from repro.net.packet import MSS_BYTES as MSS_BYTES
    from repro.net.packet import Packet as Packet
    from repro.net.queues import DropTailQueue as DropTailQueue
    from repro.net.queues import EcnQueue as EcnQueue
    from repro.net.queues import FairQueue as FairQueue
    from repro.net.queues import QueueStats as QueueStats
    from repro.net.queues import RedQueue as RedQueue
    from repro.net.routing import build_routing_tables as build_routing_tables
    from repro.net.topology import FatTree as FatTree
    from repro.net.topology import MultiHopTopology as MultiHopTopology
    from repro.net.topology import Network as Network
    from repro.net.topology import StarTopology as StarTopology
    from repro.net.topology import TwoLevelTree as TwoLevelTree
    from repro.net.topology import build_fat_tree as build_fat_tree
    from repro.net.topology import build_multi_hop as build_multi_hop
    from repro.net.topology import build_star as build_star
    from repro.net.topology import build_two_level_tree as build_two_level_tree

_lazy_exports(__name__, {
    "Link": "repro.net.link",
    "LinkStats": "repro.net.link",
    "Host": "repro.net.node",
    "Node": "repro.net.node",
    "Switch": "repro.net.node",
    "ACK_BYTES": "repro.net.packet",
    "MSS_BYTES": "repro.net.packet",
    "Packet": "repro.net.packet",
    "DropTailQueue": "repro.net.queues",
    "EcnQueue": "repro.net.queues",
    "FairQueue": "repro.net.queues",
    "QueueStats": "repro.net.queues",
    "RedQueue": "repro.net.queues",
    "build_routing_tables": "repro.net.routing",
    "FatTree": "repro.net.topology",
    "MultiHopTopology": "repro.net.topology",
    "Network": "repro.net.topology",
    "StarTopology": "repro.net.topology",
    "TwoLevelTree": "repro.net.topology",
    "build_fat_tree": "repro.net.topology",
    "build_multi_hop": "repro.net.topology",
    "build_star": "repro.net.topology",
    "build_two_level_tree": "repro.net.topology",
})
