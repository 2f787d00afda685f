"""Nodes: hosts (endpoints) and switches (store-and-forward routers).

A node owns one egress :class:`~repro.net.link.Link` per neighbour.
Switches forward on packet destination via a static routing table that
may hold several equal-cost next hops (ECMP); the hop is picked by
hashing the flow id, so a connection's packets stay on one path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

from repro.net.packet import Packet
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link

__all__ = ["Agent", "Host", "Node", "Switch"]


class Agent(Protocol):
    """Anything attachable to a host that consumes packets for a flow."""

    def receive_packet(self, pkt: Packet) -> None: ...


class Node:
    """Base class holding identity and per-neighbour egress links."""

    __slots__ = ("sim", "node_id", "name", "egress")

    def __init__(self, sim: Simulator, node_id: int, name: str = "") -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"node{node_id}"
        self.egress: dict[int, "Link"] = {}

    def attach_link(self, link: "Link") -> None:
        """Register ``link`` as this node's egress towards its far end."""
        if link.src_node is not self:
            raise ValueError(f"link {link.name} does not originate at {self.name}")
        self.egress[link.dst_node.node_id] = link

    def receive(self, pkt: Packet) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name})"


class Host(Node):
    """An endpoint: demultiplexes arriving packets to transport agents.

    A host usually has a single egress link (its NIC).  Data packets are
    delivered to the sink registered for the flow; ACKs to the source.
    Both are registered under the same flow id on their own hosts.
    """

    __slots__ = ("_agents", "_nic")

    def __init__(self, sim: Simulator, node_id: int, name: str = "") -> None:
        super().__init__(sim, node_id, name)
        self._agents: dict[int, Agent] = {}
        self._nic: Optional["Link"] = None  # memoized single-egress link

    def attach_link(self, link: "Link") -> None:
        super().attach_link(link)
        self._nic = None  # a second link invalidates the single-NIC cache

    def attach_agent(self, flow_id: int, agent: Agent) -> None:
        if flow_id in self._agents:
            raise ValueError(f"flow {flow_id} already attached to {self.name}")
        self._agents[flow_id] = agent

    def agent_for(self, flow_id: int) -> Optional[Agent]:
        return self._agents.get(flow_id)

    @property
    def nic(self) -> "Link":
        """The host's single egress link; raises if it has 0 or many."""
        nic = self._nic
        if nic is not None:
            return nic
        if len(self.egress) != 1:
            raise ValueError(
                f"{self.name} has {len(self.egress)} egress links, expected 1"
            )
        nic = next(iter(self.egress.values()))
        self._nic = nic
        return nic

    def send(self, pkt: Packet) -> None:
        """Emit ``pkt`` on the NIC (single-homed hosts)."""
        nic = self._nic
        if nic is None:
            nic = self.nic
        nic.send(pkt)

    def receive(self, pkt: Packet) -> None:
        if pkt.dst != self.node_id:
            raise RuntimeError(
                f"{self.name} received packet for node {pkt.dst}; routing bug"
            )
        agent = self._agents.get(pkt.flow_id)
        if agent is None:
            raise RuntimeError(
                f"{self.name} has no agent for flow {pkt.flow_id}"
            )
        agent.receive_packet(pkt)


class Switch(Node):
    """Store-and-forward switch with static (possibly ECMP) routes.

    ``routes`` maps destination node id → tuple of next-hop node ids.
    """

    __slots__ = ("routes",)

    def __init__(self, sim: Simulator, node_id: int, name: str = "") -> None:
        super().__init__(sim, node_id, name)
        self.routes: dict[int, tuple[int, ...]] = {}

    def set_route(self, dst: int, next_hops: tuple[int, ...]) -> None:
        if not next_hops:
            raise ValueError("route needs at least one next hop")
        for hop in next_hops:
            if hop not in self.egress:
                raise ValueError(
                    f"{self.name} has no egress link to next hop {hop}"
                )
        self.routes[dst] = next_hops

    def receive(self, pkt: Packet) -> None:
        next_hops = self.routes.get(pkt.dst)
        if next_hops is None:
            raise RuntimeError(f"{self.name} has no route to node {pkt.dst}")
        if len(next_hops) == 1:
            hop = next_hops[0]
        else:
            hop = next_hops[_flow_hash(pkt.flow_id) % len(next_hops)]
        self.egress[hop].send(pkt)


def _flow_hash(flow_id: int) -> int:
    """Deterministic scramble so consecutive flow ids spread across paths."""
    x = (flow_id + 0x9E3779B9) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 13
    x = (x * 0xC2B2AE35) & 0xFFFFFFFF
    x ^= x >> 16
    return x
