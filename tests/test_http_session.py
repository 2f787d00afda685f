"""Tests for the request/response HttpSession."""

import pytest

from repro.http.apps import HttpSession
from repro.net.packet import ACK_BYTES
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig
from tests.helpers import FAST


def make_session(protocol="reno", n_servers=1, service_time=0.0, **kwargs):
    sim = Simulator()
    star = build_star(sim, n_servers)
    session = HttpSession(
        sim, star.frontend, star.servers[0], protocol,
        request_flow_id=100, response_flow_id=200,
        config=TcpConfig(**FAST), service_time=service_time, **kwargs,
    )
    return sim, star, session


class TestHttpSession:
    def test_request_produces_response(self):
        sim, _star, session = make_session()
        exchange = session.request(response_bytes=10_000)
        sim.run(until=0.5)
        assert exchange.response is not None
        assert exchange.response.finish_time is not None
        assert exchange.completion_time > 0

    def test_completion_includes_request_leg(self):
        sim, _star, session = make_session()
        exchange = session.request(response_bytes=1460)
        sim.run(until=0.5)
        # RTT for request + RTT for response: strictly more than one RTT.
        base_rtt = 4 * 50e-6
        assert exchange.completion_time > base_rtt

    def test_service_time_adds_latency(self):
        sim1, _s1, fast = make_session(service_time=0.0)
        e1 = fast.request(1460)
        sim1.run(until=0.5)
        sim2, _s2, slow = make_session(service_time=0.01)
        e2 = slow.request(1460)
        sim2.run(until=0.5)
        assert e2.completion_time >= e1.completion_time + 0.009

    @pytest.mark.parametrize("service_time", [0.0, 300e-6])
    def test_server_answers_once_the_request_ack_reaches_the_frontend(
        self, service_time
    ):
        """EXPERIMENTS.md Known deviation 10: the response starts
        ``service_time`` after the front-end holds the request's ACK
        (the request message's ``on_complete``), which is one ACK trip
        server -> switch -> front-end after the request reached the
        server, not when it reached the server."""
        sim, star, session = make_session(service_time=service_time)
        to_server = star.network.link_between(star.switch, star.servers[0])
        request_landed = []
        to_server.add_observer(
            lambda pkt: request_landed.append(sim.now) if pkt.flow_id == 100 else None
        )
        exchange = session.request(response_bytes=10_000)
        sim.run(until=0.5)
        (landed,) = request_landed
        ack_trip = 2 * (50e-6 + ACK_BYTES * 8 / 1e9)  # two idle 1 Gbps hops
        assert exchange.request.finish_time == pytest.approx(landed + ack_trip)
        assert exchange.response.submit_time == pytest.approx(
            exchange.request.finish_time + service_time
        )

    def test_sequential_requests_reuse_the_connection(self):
        sim, _star, session = make_session()
        done = []

        def next_request(exchange):
            done.append(exchange)
            if len(done) < 5:
                session.request(5_000, on_complete=next_request)

        session.request(5_000, on_complete=next_request)
        sim.run(until=1.0)
        assert len(done) == 5
        assert all(e.completion_time > 0 for e in done)
        # One persistent response connection carried all five responses.
        assert session.response_source.stats.segments_sent >= 5 * 4

    def test_trim_session_probes_between_responses(self):
        sim, _star, session = make_session(
            protocol="trim", capacity_pps=85616.0
        )
        exchanges = []  # the session keeps no roster: the caller does
        for i in range(4):
            sim.schedule_at(
                0.02 * (i + 1), lambda: exchanges.append(session.request(30_000))
            )
        sim.run(until=0.5)
        assert len(exchanges) == 4
        assert all(e.completion_time > 0 for e in exchanges)
        # Requests arrive after idle gaps, so the response channel probed.
        assert session.response_source.probes_completed >= 2

    def test_completion_times_list(self):
        sim, _star, session = make_session()
        exchanges = [session.request(1460), session.request(1460)]
        sim.run(until=0.5)
        times = [e.completion_time for e in exchanges]
        assert len(times) == 2
        assert all(t > 0 for t in times)

    def test_validation(self):
        sim, _star, session = make_session()
        with pytest.raises(ValueError):
            session.request(0)
        with pytest.raises(ValueError):
            make_session(service_time=-1.0)

    def test_unfinished_exchange_raises_on_completion_time(self):
        _sim, _star, session = make_session()
        exchange = session.request(1460)
        with pytest.raises(ValueError):
            exchange.completion_time
