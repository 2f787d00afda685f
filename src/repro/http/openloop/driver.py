"""Playing a compiled schedule onto the kernel timeline.

The driver is the open-loop half of the request/response loop: it
issues every :class:`~repro.http.openloop.sessions.ScheduledRequest` at
its scheduled time *regardless of whether earlier responses have
landed* — under overload, concurrency piles up exactly as it does
behind a real front-end.  Each request leases a persistent
:class:`~repro.http.apps.HttpSession` from the target server's
:class:`~repro.http.openloop.pool.ConnectionPool` (round-robin across
servers in issue order, so fan-out siblings hit distinct backends) and
returns it on completion; pool churn — cold opens during reconnect
storms, idle closes during lulls — emerges from the arrival pattern.
A session its pool closes leaves the simulation unless it ever
retransmitted: the driver banks its RTOs and detaches its agents from
both hosts, so a run holds its live connections, not every one it
opened (DESIGN.md §2, "State layout").

Every lifecycle step is emitted on the telemetry bus's ``session`` and
``pool`` channels, and the whole run is deterministic in (schedule,
topology, protocol, seed): the golden replay fixture pins the exported
telemetry byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Any, Optional

from repro.http.apps import Exchange, HttpSession
from repro.http.openloop.pool import ConnectionPool, PoolStats
from repro.http.openloop.sessions import ScheduledRequest, SessionSchedule
from repro.net.node import Host
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig

__all__ = ["OpenLoopDriver", "OpenLoopRun"]


@dataclass
class OpenLoopRun:
    """What one driven schedule did (fills in as the simulation runs)."""

    offered: int = 0
    issued: int = 0
    completed: int = 0
    latencies: list[float] = field(default_factory=list)
    bytes_completed: int = 0


class OpenLoopDriver:
    """Drives a schedule through per-server keep-alive pools.

    ``servers`` are the backend hosts; requests round-robin across them
    in issue order.  ``config`` (and ``response_kwargs``, e.g. TRIM's
    ``capacity_pps``/``base_rtt``) configure the response connections
    running the protocol under test; requests ride plain Reno, as in
    :class:`~repro.http.apps.HttpSession`.
    """

    def __init__(
        self,
        sim: Simulator,
        frontend: Host,
        servers: list[Host],
        protocol: str,
        config: Optional[TcpConfig] = None,
        idle_timeout_s: float = 0.2,
        max_reuse: Optional[int] = None,
        service_time: float = 0.0,
        **response_kwargs: Any,
    ) -> None:
        if not servers:
            raise ValueError("need at least one backend server")
        self.sim = sim
        self.frontend = frontend
        self.servers = servers
        self.protocol = protocol
        self._config = config
        self._service_time = service_time
        self._response_kwargs = response_kwargs
        self._next_flow_id = 0
        #: RTO firings of the response connections the pools have
        #: closed; the driver keeps no roster of the sessions themselves.
        self._closed_timeouts = 0
        self.pools: list[ConnectionPool[HttpSession]] = [
            ConnectionPool(
                sim,
                factory=self._session_factory(index),
                idle_timeout_s=idle_timeout_s,
                max_reuse=max_reuse,
                on_close=self._close_session,
                name=f"srv{index}",
            )
            for index in range(len(servers))
        ]
        self._issue_counter = 0

    def _session_factory(self, server_index: int) -> Any:
        def open_session(_conn_id: int) -> HttpSession:
            request_id = self._next_flow_id
            response_id = self._next_flow_id + 1
            self._next_flow_id += 2
            return HttpSession(
                self.sim,
                self.frontend,
                self.servers[server_index],
                self.protocol,
                request_flow_id=request_id,
                response_flow_id=response_id,
                config=self._config,
                service_time=self._service_time,
                **self._response_kwargs,
            )

        return open_session

    def _close_session(self, session: HttpSession) -> None:
        """A pool closed ``session``: bank its RTOs and, when no packet
        of it can still be in flight, detach its four agents.

        A pool closes only an idle session, whose last exchange is
        acknowledged.  If neither source ever retransmitted, every
        segment of either flow went out once, in order, down one FIFO
        path, so the ACK that completed the last message was the last
        packet of both flows and nothing can arrive for them any more.
        A retransmission breaks that argument (a spurious copy may still
        be queued), so such a session stays attached; a packet for a
        detached flow would still raise in :meth:`Host.receive`.
        """
        request = session.request_source
        response = session.response_source
        assert request is not None and response is not None  # persistent
        self._closed_timeouts += response.timeouts
        if request.stats.retransmits or response.stats.retransmits:
            return
        for host in (self.frontend, session.server):
            host.detach_agent(request.flow_id)
            host.detach_agent(response.flow_id)

    # ------------------------------------------------------------------
    def play(self, schedule: SessionSchedule) -> OpenLoopRun:
        """Schedule every request onto the timeline; returns the run.

        The returned :class:`OpenLoopRun` fills in as the simulation
        executes — run the kernel past the schedule horizon (plus a
        drain margin) before reading it.
        """
        run = OpenLoopRun(offered=len(schedule))
        # Not one event per request: fan-out siblings share a timestamp and
        # would hold consecutive sequence numbers, so no other event could run
        # between them (DESIGN.md, "One event per application instant").
        for time, group in groupby(schedule, key=attrgetter("time")):
            self.sim.schedule_at(time, self._issue_batch, list(group), run)
        return run

    def _issue_batch(
        self, requests: list[ScheduledRequest], run: OpenLoopRun
    ) -> None:
        for request in requests:
            self._issue(request, run)

    def _issue(self, request: ScheduledRequest, run: OpenLoopRun) -> None:
        server_index = self._issue_counter % len(self.servers)
        self._issue_counter += 1
        pool = self.pools[server_index]
        conn_id, session = pool.lease()
        run.issued += 1
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_session(
                self.sim.now, request.session, "request",
                size=request.size_bytes,
            )
        session.request(
            request.size_bytes,
            on_complete=lambda exchange: self._complete(
                request, run, pool, conn_id, exchange
            ),
        )

    def _complete(
        self,
        request: ScheduledRequest,
        run: OpenLoopRun,
        pool: ConnectionPool[HttpSession],
        conn_id: int,
        exchange: Exchange,
    ) -> None:
        run.completed += 1
        run.bytes_completed += request.size_bytes
        latency = exchange.completion_time
        run.latencies.append(latency)
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_session(
                self.sim.now, request.session, "complete", latency=latency
            )
        pool.release(conn_id)

    # ------------------------------------------------------------------
    def pool_stats(self) -> PoolStats:
        """Summed lifecycle counters across the per-server pools."""
        total = PoolStats()
        for pool in self.pools:
            total = total.merged(pool.stats)
        return total

    def check_conservation(self) -> None:
        """Assert no pool lost a connection (opened == closed + live)."""
        for pool in self.pools:
            pool.check_conservation()

    def total_timeouts(self) -> int:
        """RTO firings summed over every response connection opened:
        the closed ones' running total plus the live ones'."""
        return self._closed_timeouts + sum(
            session.response_source.timeouts
            for pool in self.pools
            for session in pool.connections()
            if session.response_source is not None
        )
