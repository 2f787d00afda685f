"""Unit tests for the shared experiment plumbing."""

import pytest

from repro.core.trim import TrimSource
from repro.experiments import scenarios
from repro.experiments.faults import FaultsParams, run_faults_case
from repro.experiments.scenarios import (
    ConnectionSet,
    WARM_SSTHRESH,
    dctcp_threshold_pkts,
    ecn_threshold_for,
    packets_per_second,
    path_base_rtt,
    protocol_kwargs,
    run_until,
    warm_config,
)
from repro.net.topology import (
    build_fat_tree,
    build_multi_hop,
    build_star,
    build_two_level_tree,
)
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig
from repro.tcp.factory import make_connection


class TestConversions:
    def test_packets_per_second(self):
        assert packets_per_second(1e9) == pytest.approx(1e9 / (8 * 1460))

    def test_packets_per_second_validation(self):
        with pytest.raises(ValueError):
            packets_per_second(0.0)

    def test_dctcp_threshold_matches_paper_anchors(self):
        # The DCTCP paper's empirical K: 20 pkts at 1 Gbps, 65 at 10 Gbps.
        assert dctcp_threshold_pkts(1e9) == 20
        assert dctcp_threshold_pkts(10e9) == 65
        assert dctcp_threshold_pkts(1e7) == 5  # floor

    def test_dctcp_threshold_monotone(self):
        rates = (1e8, 1e9, 5e9, 10e9, 40e9)
        thresholds = [dctcp_threshold_pkts(r) for r in rates]
        assert thresholds == sorted(thresholds)

    def test_ecn_threshold_only_for_ecn_protocols(self):
        assert ecn_threshold_for("dctcp", 1e9) == 20
        assert ecn_threshold_for("l2dct", 1e9) == 20
        assert ecn_threshold_for("reno", 1e9) is None
        assert ecn_threshold_for("trim", 1e9) is None

    def test_path_base_rtt(self):
        rtt = path_base_rtt([(50e-6, 1e9), (50e-6, 1e9)])
        forward = 2 * (50e-6 + 1460 * 8 / 1e9)
        reverse = 2 * (50e-6 + 40 * 8 / 1e9)
        assert rtt == pytest.approx(forward + reverse)

    def test_path_base_rtt_needs_links(self):
        with pytest.raises(ValueError):
            path_base_rtt([])


class TestWarmConfig:
    def test_overrides_ssthresh_only(self):
        base = TcpConfig(min_rto=0.05)
        warm = warm_config(base)
        assert warm.initial_ssthresh == WARM_SSTHRESH
        assert warm.min_rto == 0.05
        assert base.initial_ssthresh != WARM_SSTHRESH  # original untouched


def _star_path(n_servers=1, **kwargs):
    """A star and the route its servers' flows take to the front-end."""
    sim = Simulator()
    star = build_star(sim, n_servers, **kwargs)
    return sim, star, star.network.path(star.servers[0], star.frontend)


def _hops(links):
    return [(link.delay_s, link.bandwidth_bps) for link in links]


class TestNetworkPath:
    def test_star(self):
        _, star, path = _star_path(3)
        assert _hops(path) == [(50e-6, 1e9)] * 2
        assert path[-1] is star.bottleneck

    def test_star_with_a_slower_frontend(self):
        # the fairness star (Fig. 10, quick preset)
        _, _, path = _star_path(2, bandwidth_bps=1.1e8, frontend_bandwidth_bps=1e8)
        assert _hops(path) == [(50e-6, 1.1e8), (50e-6, 1e8)]

    def test_two_level_tree(self):
        topo = build_two_level_tree(Simulator(), 2, servers_per_switch=2)
        path = topo.network.path(topo.servers[0], topo.frontend)
        assert _hops(path) == [(20e-6, 1e9), (20e-6, 1e9), (10e-6, 10e9)]
        assert [link.name for link in path] == [
            "s0h0->edge0", "edge0->fabric", "fabric->frontend"
        ]

    def test_multi_hop(self):
        topo = build_multi_hop(Simulator(), group_size=2)
        path = topo.network.path(topo.group_a[0], topo.frontend)
        assert _hops(path) == [(20e-6, 1e9), (10e-6, 10e9), (10e-6, 10e9)]

    def test_fat_tree_inter_pod(self):
        topo = build_fat_tree(Simulator(), 4)
        path = topo.network.path(topo.hosts[0], topo.hosts[-1])
        assert _hops(path) == [(10e-6, 10e9)] * 6
        assert all(a.dst_node is b.src_node for a, b in zip(path, path[1:]))
        assert path[0].src_node is topo.hosts[0]
        assert path[-1].dst_node is topo.hosts[-1]

    def test_no_route_names_both_nodes(self):
        sim = Simulator()
        star = build_star(sim, 2)
        stray = star.network.add_host("stray")
        with pytest.raises(KeyError, match="server0 -> stray"):
            star.network.path(star.servers[0], stray)
        with pytest.raises(KeyError, match="stray -> frontend"):
            star.network.path(stray, star.frontend)


class TestProtocolKwargs:
    def test_rto_config_from_min_rto(self):
        _, _, path = _star_path()
        kwargs = protocol_kwargs("reno", 0.2, path)
        assert set(kwargs) == {"config"}
        assert kwargs["config"].min_rto == 0.2
        assert kwargs["config"].initial_rto == 0.2

    def test_protocol_defaults_survive(self):
        _, _, path = _star_path()
        assert protocol_kwargs("dctcp", 0.01, path)["config"].ecn_capable

    def test_trim_gets_eq22_inputs_from_the_path(self):
        _, _, path = _star_path(frontend_bandwidth_bps=500e6)
        kwargs = protocol_kwargs("trim", 0.01, path)
        assert kwargs["capacity_pps"] == packets_per_second(500e6)
        assert kwargs["base_rtt"] == path_base_rtt(_hops(path))


class TestConnectionSet:
    def test_flow_ids_unique(self):
        sim, star, path = _star_path(3)
        conns = ConnectionSet(sim, "reno", 0.2, path)
        conns.connect_many(star.servers, star.frontend)
        ids = [s.flow_id for s in conns.sources]
        assert ids == [0, 1, 2]

    def test_trim_gets_capacity_and_base_rtt(self):
        sim, star, path = _star_path(3)
        conns = ConnectionSet(sim, "trim", 0.01, path)
        source, _sink = conns.connect(star.servers[0], star.frontend)
        assert isinstance(source, TrimSource)
        assert source.capacity_pps == packets_per_second(1e9)
        assert source.base_rtt == path_base_rtt([(50e-6, 1e9)] * 2)
        assert source.k is not None

    def test_per_connection_config_override(self):
        # the one per-connection override: warm-starting a long-lived flow
        sim, star, path = _star_path(3)
        conns = ConnectionSet(sim, "reno", 0.2, path)
        warm, _ = conns.connect(star.servers[0], star.frontend, warm=True)
        cold, _ = conns.connect(star.servers[1], star.frontend)
        assert warm.config.initial_ssthresh == WARM_SSTHRESH
        assert cold.config.initial_ssthresh != WARM_SSTHRESH
        assert warm.config.min_rto == cold.config.min_rto == 0.2

    def test_timeout_aggregation(self):
        sim, star, path = _star_path(3)
        conns = ConnectionSet(sim, "reno", 0.2, path)
        conns.connect_many(star.servers, star.frontend)
        conns.sources[0].stats.timeouts = 2
        conns.sources[2].stats.timeouts = 1
        assert conns.total_timeouts == 3
        assert conns.timeouts_per_source == [2, 0, 1]


class TestFaultsBottleneck:
    def test_trim_sizes_k_from_the_50mbps_frontend(self, monkeypatch):
        # the quick preset's 50 Mbps front-end link is the bottleneck,
        # not the 100 Mbps edge (EXPERIMENTS.md Known deviation 12)
        sources = []

        def spy(*args, **kwargs):
            pair = make_connection(*args, **kwargs)
            sources.append(pair[0])
            return pair

        monkeypatch.setattr(scenarios, "make_connection", spy)
        params = FaultsParams.quick("trim", horizon=0.05)
        run_faults_case(params, 0.0, seed=1)
        assert sources and all(isinstance(s, TrimSource) for s in sources)
        for source in sources:
            assert source.capacity_pps == packets_per_second(50e6)
            assert source.base_rtt == pytest.approx(560e-6, rel=1e-12)


class TestRunUntil:
    def test_stops_when_predicate_true(self):
        sim = Simulator()
        flag = []
        sim.schedule(0.3, lambda: flag.append(1))
        assert run_until(sim, lambda: bool(flag), deadline=1.0, step=0.1)
        assert sim.now < 1.0

    def test_returns_false_at_deadline(self):
        sim = Simulator()
        assert not run_until(sim, lambda: False, deadline=0.5, step=0.1)
        assert sim.now == pytest.approx(0.5)

    def test_rejects_past_deadline(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            run_until(sim, lambda: True, deadline=0.5)


class TestRunUntilEarlyExit:
    """Regression: an empty event heap must not be busy-stepped."""

    def test_empty_heap_jumps_to_deadline(self):
        sim = Simulator()
        calls = []

        def predicate():
            calls.append(sim.now)
            return False

        assert not run_until(sim, predicate, deadline=10.0, step=0.05)
        assert sim.now == pytest.approx(10.0)
        # one check on entry, one after the jump — not one per `step`
        assert len(calls) == 2

    def test_heap_draining_mid_run_still_exits_early(self):
        sim = Simulator()
        flag = []
        sim.schedule(0.2, lambda: None)  # heap drains at 0.2

        assert not run_until(sim, lambda: bool(flag), deadline=50.0, step=0.05)
        assert sim.now == pytest.approx(50.0)

    def test_predicate_flipped_by_last_event_is_seen(self):
        sim = Simulator()
        flag = []
        sim.schedule(0.3, lambda: flag.append(1))
        assert run_until(sim, lambda: bool(flag), deadline=50.0, step=0.05)
        assert sim.now < 1.0
