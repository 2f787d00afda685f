"""Open-loop HTTP load engine.

Closed-loop drivers (``repro.http.apps``) issue the next request only
after the previous response lands, so concurrency is whatever the
experiment hard-codes.  Open-loop load inverts that: *users* arrive by
a seeded stochastic process whether or not the system keeps up, each
runs a session of think-time-separated requests, and connections are
leased from a keep-alive pool with churn — concurrency becomes an
emergent property of offered load, exactly the regime the paper's
highly-concurrent persistent-connection premise describes.

The engine splits into a pure, seeded *schedule compiler* and a
simulator *driver*:

* :mod:`~repro.http.openloop.arrivals` — arrival processes (Poisson,
  MMPP on/off bursts, diurnal rate schedules) behind one spec grammar;
* :mod:`~repro.http.openloop.sessions` — user sessions (request chains
  with think times and paper-style size distributions, multi-tier RPC
  fan-out) compiled to a deterministic request schedule;
* :mod:`~repro.http.openloop.trace` — the JSONL trace-replay format
  (one ``{"t", "session", "size"}`` row per request, byte-canonical);
* :mod:`~repro.http.openloop.pool` — the keep-alive connection pool
  (idle timeout, max-reuse retirement, reconnect storms) with a
  conservation invariant: ``opened == closed + leased + idle``;
* :mod:`~repro.http.openloop.driver` — plays a compiled schedule onto
  the kernel timeline through the pool and collects per-request
  latencies plus pool churn statistics.

Same seed + same spec ⇒ byte-identical schedules, trace files, and
telemetry, across processes and sweep backends.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.http.openloop.arrivals import ArrivalProcess as ArrivalProcess
    from repro.http.openloop.arrivals import DiurnalArrivals as DiurnalArrivals
    from repro.http.openloop.arrivals import MmppArrivals as MmppArrivals
    from repro.http.openloop.arrivals import PoissonArrivals as PoissonArrivals
    from repro.http.openloop.arrivals import parse_arrivals as parse_arrivals
    from repro.http.openloop.driver import OpenLoopDriver as OpenLoopDriver
    from repro.http.openloop.driver import OpenLoopRun as OpenLoopRun
    from repro.http.openloop.pool import ConnectionPool as ConnectionPool
    from repro.http.openloop.pool import PoolStats as PoolStats
    from repro.http.openloop.sessions import FanoutSpec as FanoutSpec
    from repro.http.openloop.sessions import ScheduledRequest as ScheduledRequest
    from repro.http.openloop.sessions import SessionConfig as SessionConfig
    from repro.http.openloop.sessions import SessionSchedule as SessionSchedule
    from repro.http.openloop.sessions import compile_schedule as compile_schedule
    from repro.http.openloop.trace import load_trace as load_trace
    from repro.http.openloop.trace import write_trace as write_trace

_lazy_exports(__name__, {
    "ArrivalProcess": "repro.http.openloop.arrivals",
    "DiurnalArrivals": "repro.http.openloop.arrivals",
    "MmppArrivals": "repro.http.openloop.arrivals",
    "PoissonArrivals": "repro.http.openloop.arrivals",
    "parse_arrivals": "repro.http.openloop.arrivals",
    "OpenLoopDriver": "repro.http.openloop.driver",
    "OpenLoopRun": "repro.http.openloop.driver",
    "ConnectionPool": "repro.http.openloop.pool",
    "PoolStats": "repro.http.openloop.pool",
    "FanoutSpec": "repro.http.openloop.sessions",
    "ScheduledRequest": "repro.http.openloop.sessions",
    "SessionConfig": "repro.http.openloop.sessions",
    "SessionSchedule": "repro.http.openloop.sessions",
    "compile_schedule": "repro.http.openloop.sessions",
    "load_trace": "repro.http.openloop.trace",
    "write_trace": "repro.http.openloop.trace",
})
