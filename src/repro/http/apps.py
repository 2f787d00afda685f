"""Application drivers: persistent-connection servers and traffic roles.

The paper's workloads decompose into sender roles, all multiplexed over
persistent TCP connections:

* :class:`ScheduledResponder` — a back-end web server that emits HTTP
  responses (packet trains) at scheduled times (the ON/OFF pattern);
* :class:`LongTrainSender` — a server transferring a long packet train,
  either of fixed size or effectively infinite (throughput tests);
* :func:`burst_at` — the partition/aggregation pattern: many servers
  releasing an SPT at the same instant toward one front-end;
* :class:`HttpSession` — the full request/response loop: a front-end
  sends one-segment HTTP requests on a persistent connection and the
  server answers each with a response train, after an optional service
  time, once the front-end holds the request's ACK (not when the
  request reaches the server: EXPERIMENTS.md, Known deviation 10).
  The OFF periods of the ON/OFF pattern emerge from request spacing
  rather than being scheduled directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.http.workload import OnOffEvent
from repro.net.node import Host
from repro.sim.kernel import Simulator
from repro.tcp.base import Message, TcpConfig, TcpSource
from repro.tcp.factory import make_connection

__all__ = ["HttpSession", "LongTrainSender", "ScheduledResponder", "burst_at"]

INFINITE_SEGMENTS = 50_000_000
"""Large enough that a sender never drains within any experiment."""


@dataclass
class ScheduledResponder:
    """Replays an ON/OFF schedule of responses on one connection.

    Each :class:`~repro.http.workload.OnOffEvent` becomes one message on
    ``source`` at its scheduled time; completed messages accumulate in
    :attr:`messages` for completion-time statistics.
    """

    sim: Simulator
    source: TcpSource
    schedule: Iterable[OnOffEvent]
    messages: list[Message] = field(default_factory=list)

    def start(self) -> "ScheduledResponder":
        for event in self.schedule:
            self.sim.schedule_at(event.time, self._emit, event.size_bytes)
        return self

    def _emit(self, size_bytes: int) -> None:
        self.messages.append(self.source.send_bytes(size_bytes))

    @property
    def completed(self) -> list[Message]:
        return [m for m in self.messages if m.finish_time is not None]

    def completion_times(self) -> list[float]:
        return [m.completion_time for m in self.completed]


@dataclass
class LongTrainSender:
    """Sends one long packet train starting at ``start_time``.

    ``segments=None`` means "infinite" (the sender stays backlogged for
    the whole run, as in the throughput/fairness tests); otherwise the
    train is a message whose completion is recorded.
    """

    sim: Simulator
    source: TcpSource
    start_time: float
    segments: Optional[int] = None
    message: Optional[Message] = None

    def start(self) -> "LongTrainSender":
        self.sim.schedule_at(self.start_time, self._begin)
        return self

    def _begin(self) -> None:
        n = self.segments if self.segments is not None else INFINITE_SEGMENTS
        self.message = self.source.send_message(n)

    def stop_at(self, time: float) -> "LongTrainSender":
        """Schedule the sender to stop offering data at ``time``."""
        self.sim.schedule_at(time, self.source.stop)
        return self


def burst_at(
    sim: Simulator,
    sources: Iterable[TcpSource],
    time: float,
    segments: int,
) -> list[Message]:
    """Partition/aggregation: every source emits an SPT at ``time``.

    Returns the (initially unfinished) messages in source order; the
    list fills with completion times as the simulation runs.
    """
    if segments < 1:
        raise ValueError("an SPT needs at least one segment")
    messages: list[Message] = []

    def emit_all(batch: list[TcpSource]) -> None:
        for source in batch:
            messages.append(source.send_message(segments))

    # One event for the instant: per-source events would hold consecutive
    # sequence numbers, so nothing could run between them (DESIGN.md).
    burst = list(sources)
    if burst:
        sim.schedule_at(time, emit_all, burst)
    return messages


@dataclass(slots=True)
class Exchange:
    """One request/response pair on an :class:`HttpSession`."""

    request: Message
    response_bytes: int
    #: the connection carrying the response (non-persistent: a fresh one)
    _response_source: TcpSource
    #: when the exchange was initiated (for non-persistent sessions this
    #: is the connection attempt, before the handshake round trip)
    start_time: float = 0.0
    response: Optional[Message] = None
    #: one-shot, like :attr:`Message.on_complete`: cleared before the call
    on_complete: Optional[Callable[["Exchange"], None]] = None

    @property
    def completion_time(self) -> float:
        """Exchange initiation to response fully acknowledged."""
        if self.response is None or self.response.finish_time is None:
            raise ValueError("exchange has not completed")
        return self.response.finish_time - self.start_time


class HttpSession:
    """A persistent HTTP session between a front-end and a server.

    Two TCP connections model the two directions of the persistent
    connection: a request channel (front-end → server, small messages)
    and a response channel (server → front-end, running the protocol
    under test).  Calling :meth:`request` sends a one-segment request;
    once its ACK reaches the front-end (the request message's
    ``on_complete``, half a round trip after the server holds it) the
    server waits ``service_time`` and transmits the response train.
    This is the Section II.A loop — the connection's OFF periods are
    whatever the request pattern leaves idle.  The request channel
    runs Reno, with ``config`` when one is given.

    The session keeps no roster of its exchanges: a caller keeps the
    :class:`Exchange` that :meth:`request` returns (or receives it in
    ``on_complete``), and a finished exchange the caller drops is freed.
    """

    __slots__ = (
        "sim", "frontend", "server", "protocol", "service_time", "persistent",
        "_config", "_response_kwargs", "_next_flow_id",
        "request_source", "response_source",
    )

    def __init__(
        self,
        sim: Simulator,
        frontend: Host,
        server: Host,
        protocol: str,
        request_flow_id: int,
        response_flow_id: int,
        config: Optional[TcpConfig] = None,
        service_time: float = 0.0,
        persistent: bool = True,
        **response_kwargs: Any,
    ) -> None:
        if service_time < 0:
            raise ValueError("service time cannot be negative")
        self.sim = sim
        self.frontend = frontend
        self.server = server
        self.protocol = protocol
        self.service_time = service_time
        self.persistent = persistent
        self._config = config
        self._response_kwargs = response_kwargs
        self._next_flow_id = max(request_flow_id, response_flow_id) + 1
        if persistent:
            self.request_source, _ = make_connection(
                "reno", sim, frontend, server,
                flow_id=request_flow_id, config=config,
            )
            self.response_source, _ = make_connection(
                protocol, sim, server, frontend,
                flow_id=response_flow_id, config=config, **response_kwargs,
            )
        else:
            # Non-persistent HTTP: every exchange opens a fresh pair of
            # connections and pays an on-path SYN round trip first —
            # exactly the overhead the paper says persistence avoids.
            self.request_source = None
            self.response_source = None

    def _fresh_pair(self) -> tuple[TcpSource, TcpSource]:
        """A new connection pair for one non-persistent exchange."""
        req_id = self._next_flow_id
        resp_id = self._next_flow_id + 1
        self._next_flow_id += 2
        request_source, _ = make_connection(
            "reno", self.sim, self.frontend, self.server,
            flow_id=req_id, config=self._config,
        )
        response_source, _ = make_connection(
            self.protocol, self.sim, self.server, self.frontend,
            flow_id=resp_id, config=self._config,
            **self._response_kwargs,
        )
        return request_source, response_source

    def request(
        self,
        response_bytes: int,
        on_complete: Optional[Callable[[Exchange], None]] = None,
    ) -> Exchange:
        """Issue one HTTP request expecting ``response_bytes`` back."""
        if response_bytes < 1:
            raise ValueError("a response needs at least one byte")
        if self.persistent:
            request_source = self.request_source
            response_source = self.response_source
        else:
            request_source, response_source = self._fresh_pair()
        exchange = Exchange(
            request=None,  # type: ignore[arg-type]  # set just below
            response_bytes=response_bytes,
            _response_source=response_source,
            start_time=self.sim.now,
            on_complete=on_complete,
        )

        def send_request() -> None:
            exchange.request = request_source.send_message(
                1, on_complete=lambda _msg: self._serve(exchange)
            )

        if self.persistent:
            send_request()
        else:
            # The three-way handshake as a real on-path round trip: one
            # SYN-sized segment must be delivered and acknowledged
            # before the request proper goes out.  Its completion time
            # therefore includes whatever queueing the path imposes.
            syn = request_source.send_message(
                1, on_complete=lambda _msg: send_request()
            )
            exchange.request = syn  # submit time = connection attempt
        return exchange

    def _serve(self, exchange: Exchange) -> None:
        self.sim.schedule_transient(self.service_time, self._respond, exchange)

    def _respond(self, exchange: Exchange) -> None:
        exchange.response = exchange._response_source.send_bytes(
            exchange.response_bytes,
            on_complete=lambda _msg: self._finish(exchange),
        )

    def _finish(self, exchange: Exchange) -> None:
        on_complete = exchange.on_complete
        if on_complete is not None:
            exchange.on_complete = None
            on_complete(exchange)
