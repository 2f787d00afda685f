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

    @property
    def in_flight(self) -> int:
        """Requests issued but not yet fully acknowledged."""
        return self.issued - self.completed


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
        request_config: Optional[TcpConfig] = None,
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
        self._request_config = request_config
        self._service_time = service_time
        self._response_kwargs = response_kwargs
        self._next_flow_id = 0
        #: every session ever opened, pooled or since closed — the
        #: roster experiments sum per-connection stats (timeouts) over.
        self.sessions: list[HttpSession] = []
        self.pools: list[ConnectionPool[HttpSession]] = [
            ConnectionPool(
                sim,
                factory=self._session_factory(index),
                idle_timeout_s=idle_timeout_s,
                max_reuse=max_reuse,
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
            session = HttpSession(
                self.sim,
                self.frontend,
                self.servers[server_index],
                self.protocol,
                request_flow_id=request_id,
                response_flow_id=response_id,
                config=self._config,
                request_config=self._request_config,
                service_time=self._service_time,
                **self._response_kwargs,
            )
            self.sessions.append(session)
            return session

        return open_session

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
        """RTO firings summed over every response connection opened."""
        return sum(
            session.response_source.timeouts
            for session in self.sessions
            if session.response_source is not None
        )
