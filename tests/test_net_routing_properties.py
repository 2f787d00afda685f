"""Property tests for routing: agreement with networkx shortest paths.

Random two-tier topologies (a connected random switch mesh with hosts
hanging off random switches) are routed by ``build_routing_tables`` and
cross-checked against networkx: every host pair must be reachable, and
the delivered hop count must equal the graph-theoretic shortest path.
"""

from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import routing
from repro.net.node import Host, Switch
from repro.net.packet import DATA, Packet
from repro.net.topology import (
    Network,
    build_fat_tree,
    build_multi_hop,
    build_star,
    build_two_level_tree,
)
from repro.sim.kernel import Simulator


class CollectingAgent:
    def __init__(self):
        self.packets = []

    def receive_packet(self, pkt):
        self.packets.append(pkt)


def random_topology(seed):
    """A connected random switch mesh with one host per switch."""
    rng = np.random.default_rng(seed)
    n_switches = int(rng.integers(2, 8))
    mesh = nx.gnp_random_graph(n_switches, 0.5, seed=int(seed))
    # Ensure connectivity by chaining the components.
    components = [list(c) for c in nx.connected_components(mesh)]
    for a, b in zip(components, components[1:]):
        mesh.add_edge(a[0], b[0])

    sim = Simulator()
    net = Network(sim)
    switches = [net.add_switch(f"s{i}") for i in range(n_switches)]
    hosts = []
    graph = nx.Graph()
    for u, v in mesh.edges:
        net.connect(switches[u], switches[v], 1e9, 1e-6)
        graph.add_edge(f"s{u}", f"s{v}")
    for i, switch in enumerate(switches):
        host = net.add_host(f"h{i}")
        net.connect(host, switch, 1e9, 1e-6)
        graph.add_edge(f"h{i}", f"s{i}")
        hosts.append(host)
    net.finalize_routes()
    return sim, net, hosts, graph


@pytest.mark.parametrize("seed", range(12))
def test_all_pairs_hop_counts_match_networkx(seed):
    sim, _net, hosts, graph = random_topology(seed)
    agents = {}
    flow = 0
    expectations = []
    for src in hosts:
        for dst in hosts:
            if src is dst:
                continue
            flow += 1
            agent = CollectingAgent()
            dst.attach_agent(flow, agent)
            src.send(Packet(flow_id=flow, src=src.node_id,
                            dst=dst.node_id, kind=DATA, seq=0))
            agents[flow] = agent
            expectations.append(
                (flow, nx.shortest_path_length(graph, src.name, dst.name))
            )
    sim.run()
    for flow, expected_hops in expectations:
        packets = agents[flow].packets
        assert len(packets) == 1, f"flow {flow} not delivered exactly once"
        assert packets[0].hops == expected_hops


@pytest.mark.parametrize("seed", range(6))
def test_routes_only_point_one_hop_closer(seed):
    """Next hops in every table are strictly closer to the destination."""
    _sim, net, hosts, graph = random_topology(seed)
    for node in net.nodes:
        if not isinstance(node, Switch):
            continue
        for dst_id, next_hops in node.routes.items():
            dst = next(n for n in net.nodes if n.node_id == dst_id)
            here = nx.shortest_path_length(graph, node.name, dst.name)
            for hop_id in next_hops:
                hop = next(n for n in net.nodes if n.node_id == hop_id)
                there = nx.shortest_path_length(graph, hop.name, dst.name)
                assert there == here - 1


# ----------------------------------------------------------------------
# Reference: the one-BFS-per-host search over the whole graph (hosts
# included) that ``build_routing_tables`` used before it learnt that
# hosts never forward.  Kept here as the oracle for the linear-time one.
# ----------------------------------------------------------------------


def _bfs_distances(dst, predecessors):
    """Hop counts to ``dst`` following links in their forwarding direction."""
    dist = {dst.node_id: 0}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        for pred in predecessors[node.node_id]:
            if pred.node_id not in dist:
                dist[pred.node_id] = dist[node.node_id] + 1
                frontier.append(pred)
    return dist


def reference_routes(nodes):
    """``{switch id: routes}`` (insertion-ordered) by the reference search."""
    predecessors = {n.node_id: [] for n in nodes}
    for node in nodes:
        for neighbour_id in node.egress:
            predecessors[neighbour_id].append(node)
    tables = {n.node_id: {} for n in nodes if isinstance(n, Switch)}
    egress = {n.node_id: n.egress for n in nodes}
    for dst in nodes:
        if not isinstance(dst, Host):
            continue
        dist = _bfs_distances(dst, predecessors)
        for switch_id, table in tables.items():
            d = dist.get(switch_id)
            if d is None:
                continue
            next_hops = tuple(
                sorted(n for n in egress[switch_id] if dist.get(n) == d - 1)
            )
            if next_hops:
                table[dst.node_id] = next_hops
    return tables


def assert_routes_equal_reference(nodes):
    expected = reference_routes(nodes)
    for node in nodes:
        if isinstance(node, Switch):
            assert node.routes == expected[node.node_id], node.name
            # same insertion order too: nothing iterates a table today,
            # but the change claims byte-identity, not set-equality
            assert list(node.routes) == list(expected[node.node_id]), node.name


BUILDERS = {
    "star": lambda sim: build_star(sim, 24),
    "two_level_tree": lambda sim: build_two_level_tree(sim, 6, 7),
    "multi_hop": lambda sim: build_multi_hop(sim, group_size=5),
    "fat_tree_k4": lambda sim: build_fat_tree(sim, 4),
    "fat_tree_k8": lambda sim: build_fat_tree(sim, 8),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_builder_routes_equal_reference(name):
    topology = BUILDERS[name](Simulator())
    assert_routes_equal_reference(topology.network.nodes)


@pytest.mark.parametrize("seed", range(12))
def test_random_mesh_routes_equal_reference(seed):
    _sim, net, _hosts, _graph = random_topology(seed)
    assert_routes_equal_reference(net.nodes)


@settings(max_examples=60, deadline=None)
@given(
    parents=st.lists(st.integers(min_value=0, max_value=10**6), max_size=11),
    hosts_at=st.lists(st.integers(min_value=0, max_value=10**6), max_size=30),
)
def test_random_switch_trees_with_hosts_equal_reference(parents, hosts_at):
    """Switch ``i + 1`` hangs off switch ``parents[i] % (i + 1)`` (every
    tree shape), and each host off an arbitrary switch — several hosts
    per switch, switches with none, hosts created between switches."""
    net = Network(Simulator())
    switches = [net.add_switch("s0")]
    for i, parent in enumerate(parents):
        if i < len(hosts_at):  # interleave node ids of hosts and switches
            at = switches[hosts_at[i] % len(switches)]
            net.connect(net.add_host(), at, 1e9, 1e-6)
        switch = net.add_switch(f"s{i + 1}")
        net.connect(switch, switches[parent % (i + 1)], 1e9, 1e-6)
        switches.append(switch)
    for at in hosts_at[len(parents):]:
        net.connect(net.add_host(), switches[at % len(switches)], 1e9, 1e-6)
    net.finalize_routes()
    assert_routes_equal_reference(net.nodes)


def test_search_is_linear_in_the_topology(monkeypatch):
    """Fig. 8's largest paper preset (1 050 servers): one search per
    attachment switch, each over the switches only — a visit count, not
    a wall time.  The per-host search visited 1 051 x 1 094 nodes."""
    visited = []
    search = routing._switch_distances

    def counting(attachment, feeders):
        dist = search(attachment, feeders)
        visited.append(len(dist))
        return dist

    monkeypatch.setattr(routing, "_switch_distances", counting)
    tree = build_two_level_tree(Simulator(), 42, 25)
    n_switches = sum(isinstance(n, Switch) for n in tree.network.nodes)
    attachment_switches = 42 + 1  # every edge switch, and the front-end's fabric
    assert len(tree.servers) == 1050
    assert len(visited) == attachment_switches
    assert sum(visited) <= attachment_switches * (n_switches + 1)
    assert_routes_equal_reference(tree.network.nodes)
