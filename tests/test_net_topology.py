"""Unit tests for topology builders and routing tables."""

import pytest

from repro.net.node import Host, Switch
from repro.net.packet import DATA, Packet
from repro.net.queues import DropTailQueue, EcnQueue
from repro.net.topology import (
    Network,
    build_fat_tree,
    build_multi_hop,
    build_star,
    build_two_level_tree,
)
from repro.sim.kernel import Simulator


class StubAgent:
    def __init__(self):
        self.received = []

    def receive_packet(self, pkt):
        self.received.append(pkt)


def deliver(sim, network, src_host, dst_host, flow_id=1):
    """Send one data packet through the network; returns the stub agent."""
    agent = StubAgent()
    dst_host.attach_agent(flow_id, agent)
    pkt = Packet(flow_id=flow_id, src=src_host.node_id, dst=dst_host.node_id,
                 kind=DATA, seq=0)
    src_host.send(pkt)
    sim.run()
    return agent


class TestNetwork:
    def test_connect_creates_duplex_links(self):
        sim = Simulator()
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")
        fwd, rev = net.connect(a, b, 1e9, 1e-6)
        assert fwd.src_node is a and fwd.dst_node is b
        assert rev.src_node is b and rev.dst_node is a
        assert len(net.links) == 2

    def test_switch_queues_mark_when_ecn_enabled(self):
        sim = Simulator()
        net = Network(sim, ecn_threshold_pkts=5)
        sw, host = net.add_switch("s"), net.add_host("h")
        fwd, _rev = net.connect(sw, host, 1e9, 1e-6, buffer_pkts=10)
        assert isinstance(fwd.queue, EcnQueue)
        assert fwd.queue.mark_threshold_pkts == 5

    def test_host_queues_never_mark(self):
        sim = Simulator()
        net = Network(sim, ecn_threshold_pkts=5)
        sw, host = net.add_switch("s"), net.add_host("h")
        _fwd, rev = net.connect(sw, host, 1e9, 1e-6, buffer_pkts=10)
        assert isinstance(rev.queue, DropTailQueue)
        assert not isinstance(rev.queue, EcnQueue)

    def test_host_buffer_defaults_to_switch_buffer(self):
        sim = Simulator()
        net = Network(sim)
        sw, host = net.add_switch("s"), net.add_host("h")
        _fwd, rev = net.connect(sw, host, 1e9, 1e-6, buffer_pkts=37)
        assert rev.queue.capacity_pkts == 37

    def test_link_between(self):
        sim = Simulator()
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")
        fwd, _ = net.connect(a, b, 1e9, 1e-6)
        assert net.link_between(a, b) is fwd
        with pytest.raises(KeyError):
            net.link_between(a, net.add_host("c"))

    def test_node_ids_unique(self):
        net = Network(Simulator())
        ids = [net.add_host(f"h{i}").node_id for i in range(5)]
        assert len(set(ids)) == 5


class TestStar:
    def test_structure(self):
        star = build_star(Simulator(), 5)
        assert len(star.servers) == 5
        assert isinstance(star.switch, Switch)
        assert isinstance(star.frontend, Host)
        # 6 duplex cables = 12 links
        assert len(star.network.links) == 12

    def test_bottleneck_is_switch_to_frontend(self):
        star = build_star(Simulator(), 3)
        assert star.bottleneck.src_node is star.switch
        assert star.bottleneck.dst_node is star.frontend

    def test_server_to_frontend_delivery(self):
        sim = Simulator()
        star = build_star(sim, 3)
        agent = deliver(sim, star.network, star.servers[1], star.frontend)
        assert len(agent.received) == 1

    def test_frontend_to_server_delivery(self):
        sim = Simulator()
        star = build_star(sim, 3)
        agent = deliver(sim, star.network, star.frontend, star.servers[2])
        assert len(agent.received) == 1

    def test_frontend_bandwidth_override(self):
        star = build_star(Simulator(), 2, bandwidth_bps=1e9,
                          frontend_bandwidth_bps=10e9)
        assert star.bottleneck.bandwidth_bps == 10e9

    def test_needs_a_server(self):
        with pytest.raises(ValueError):
            build_star(Simulator(), 0)


class TestTwoLevelTree:
    def test_structure(self):
        tree = build_two_level_tree(Simulator(), n_switches=3, servers_per_switch=4)
        assert len(tree.edge_switches) == 3
        assert len(tree.servers) == 12
        assert all(len(g) == 4 for g in tree.server_groups)

    def test_server_reaches_frontend(self):
        sim = Simulator()
        tree = build_two_level_tree(sim, n_switches=2, servers_per_switch=2)
        agent = deliver(sim, tree.network, tree.server_groups[1][0], tree.frontend)
        assert len(agent.received) == 1
        # Path: server -> edge -> fabric -> frontend = 3 hops.
        assert agent.received[0].hops == 3


class TestMultiHop:
    def test_structure(self):
        topo = build_multi_hop(Simulator(), group_size=4)
        for group in (topo.group_a, topo.group_b, topo.group_c, topo.group_d):
            assert len(group) == 4

    def test_group_a_crosses_both_trunks(self):
        sim = Simulator()
        topo = build_multi_hop(sim, group_size=2)
        agent = deliver(sim, topo.network, topo.group_a[0], topo.frontend)
        # a -> sw1 -> sw2 -> frontend = 3 hops
        assert agent.received[0].hops == 3

    def test_group_c_reaches_group_d(self):
        sim = Simulator()
        topo = build_multi_hop(sim, group_size=2)
        agent = deliver(sim, topo.network, topo.group_c[1], topo.group_d[1])
        assert len(agent.received) == 1


class TestFatTree:
    def test_host_count(self):
        for k in (2, 4, 6):
            ft = build_fat_tree(Simulator(), k)
            assert len(ft.hosts) == k**3 // 4

    def test_switch_counts(self):
        ft = build_fat_tree(Simulator(), 4)
        assert len(ft.core) == 4
        assert all(len(p) == 2 for p in ft.aggregation)
        assert all(len(p) == 2 for p in ft.edge)

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            build_fat_tree(Simulator(), 3)
        with pytest.raises(ValueError):
            build_fat_tree(Simulator(), 0)

    def test_intra_pod_delivery(self):
        sim = Simulator()
        ft = build_fat_tree(sim, 4)
        # hosts 0 and 1 share an edge switch
        agent = deliver(sim, ft.network, ft.hosts[0], ft.hosts[1])
        assert agent.received[0].hops == 2  # host->edge->host

    def test_inter_pod_delivery(self):
        sim = Simulator()
        ft = build_fat_tree(sim, 4)
        src = ft.hosts[0]
        dst = ft.hosts[-1]  # last pod
        agent = deliver(sim, ft.network, src, dst)
        # host->edge->agg->core->agg->edge->host = 6 hops
        assert agent.received[0].hops == 6

    def test_ecmp_route_multiplicity(self):
        ft = build_fat_tree(Simulator(), 4)
        edge0 = ft.edge[0][0]
        far_host = ft.hosts[-1]
        # Towards another pod, the edge switch should see k/2 uplinks.
        assert len(edge0.routes[far_host.node_id]) == 2

    def test_all_pairs_reachable_small(self):
        sim = Simulator()
        ft = build_fat_tree(sim, 2)
        for i, src in enumerate(ft.hosts):
            for j, dst in enumerate(ft.hosts):
                if i == j:
                    continue
                agent = StubAgent()
                dst.attach_agent(100 + i * 10 + j, agent)
                src.send(Packet(flow_id=100 + i * 10 + j, src=src.node_id,
                                dst=dst.node_id, kind=DATA, seq=0))
        sim.run()
