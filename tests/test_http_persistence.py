"""Persistent vs non-persistent sessions: the paper's premise.

HTTP keeps connections persistent to avoid per-request handshakes and
cold congestion windows (Section II.B.1).  These tests quantify both
effects with the :class:`HttpSession` modes.
"""

import pytest

from repro.http.apps import HttpSession
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig
from tests.helpers import FAST


def make_session(persistent, protocol="reno", delay=200e-6):
    sim = Simulator()
    star = build_star(sim, 1, delay_s=delay)
    session = HttpSession(
        sim, star.frontend, star.servers[0], protocol,
        request_flow_id=100, response_flow_id=200,
        config=TcpConfig(**FAST), persistent=persistent,
    )
    return sim, star, session


class TestNonPersistent:
    def test_exchange_completes(self):
        sim, _star, session = make_session(persistent=False)
        exchange = session.request(10_000)
        sim.run(until=0.5)
        assert exchange.response is not None
        assert exchange.response.finish_time is not None

    def test_handshake_adds_a_round_trip(self):
        sim_p, _sp, persistent = make_session(persistent=True)
        e_p = persistent.request(1460)
        sim_p.run(until=0.5)
        sim_n, _sn, nonpersistent = make_session(persistent=False)
        e_n = nonpersistent.request(1460)
        sim_n.run(until=0.5)
        base_rtt = 4 * 200e-6
        assert e_n.completion_time >= e_p.completion_time + 0.8 * base_rtt

    def test_fresh_connections_per_exchange(self):
        sim, star, session = make_session(persistent=False)
        exchanges = [session.request(1460), session.request(1460)]
        sim.run(until=0.5)
        sources = [getattr(e, "_response_source") for e in exchanges]
        assert sources[0] is not sources[1]

    def test_cold_window_every_time(self):
        """Back-to-back large responses never benefit from history: each
        fresh connection slow-starts from the initial window."""

        def total_time(persistent):
            sim, _star, session = make_session(persistent=persistent)
            issued, done = [], []

            def chain(exchange=None):
                if exchange is not None:
                    done.append(exchange)
                if len(issued) < 6:
                    issued.append(session.request(80_000, on_complete=chain))

            chain()
            sim.run(until=2.0)
            assert done == issued and len(done) == 6
            return sum(e.completion_time for e in done)

        assert total_time(persistent=True) < total_time(persistent=False)

    def test_persistent_flag_default_true(self):
        _sim, _star, session = make_session(persistent=True)
        assert session.persistent
        assert session.request_source is not None
