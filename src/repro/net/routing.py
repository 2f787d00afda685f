"""Static shortest-path routing with equal-cost multipath.

Routes are computed once after the topology is built.  Hosts never
forward (``Host.receive`` raises on a foreign ``dst``), so no shortest
path runs through one: a breadth-first search over reversed links
between *switches* yields hop counts, shared by every host behind the
same attachment switch, and each switch's next hops towards a
destination are all neighbours one hop closer.  Hosts need no table
(they have one NIC).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.net.node import Host, Node, Switch

__all__ = ["build_routing_tables"]


def build_routing_tables(nodes: Iterable[Node]) -> None:
    """Populate every switch's route table for every host destination."""
    nodes = list(nodes)
    switches = [n for n in nodes if isinstance(n, Switch)]

    # Reverse adjacency: which switches have an egress link *to* this node?
    feeders: dict[int, list[Switch]] = {n.node_id: [] for n in nodes}
    for switch in switches:
        for neighbour_id in switch.egress:
            feeders[neighbour_id].append(switch)

    #: attachment switches -> (switch, its next-hop switches) for every
    #: switch that reaches a host behind them.
    plans: dict[tuple[int, ...], list[tuple[Switch, tuple[int, ...]]]] = {}
    for dst in nodes:
        if not isinstance(dst, Host):
            continue
        attachment = tuple(switch.node_id for switch in feeders[dst.node_id])
        plan = plans.get(attachment)
        if plan is None:
            dist = _switch_distances(attachment, feeders)
            plan = plans[attachment] = [
                (
                    switch,
                    tuple(
                        sorted(
                            neighbour_id
                            for neighbour_id in switch.egress
                            if dist.get(neighbour_id) == dist[switch.node_id] - 1
                        )
                    ),
                )
                for switch in switches
                if switch.node_id in dist  # else: unreachable from this switch
            ]
        for switch, next_hops in plan:
            # Only an attachment switch has no switch one hop closer:
            # its next hop is the host itself.
            switch.set_route(dst.node_id, next_hops or (dst.node_id,))


def _switch_distances(
    attachment: tuple[int, ...], feeders: dict[int, list[Switch]]
) -> dict[int, int]:
    """Hop counts from every switch to a host behind ``attachment``,
    following links in their forwarding direction."""
    dist = {node_id: 1 for node_id in attachment}
    frontier = deque(attachment)
    while frontier:
        node_id = frontier.popleft()
        for pred in feeders[node_id]:
            if pred.node_id not in dist:
                dist[pred.node_id] = dist[node_id] + 1
                frontier.append(pred.node_id)
    return dist
