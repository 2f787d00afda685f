"""User sessions: arrivals → think-time request chains → a schedule.

A *session* is one user: it starts at an arrival-process time, issues a
geometric-length chain of HTTP requests separated by exponential think
times, and sizes every response from the paper's Fig. 2(a) packet-train
distribution (:mod:`repro.http.workload`).  Multi-tier RPC fan-out —
the web-search root → aggregator → leaf pattern — expands each logical
request into ``aggregators × leaves`` synchronized backend requests
whose sizes partition the logical response, which is exactly the
partition/aggregation burst the paper's SPT scenarios model.

:func:`compile_schedule` is pure and seeded: the same
``(arrivals, config, seed, horizon)`` always compiles to the same
:class:`SessionSchedule`, request for request and byte for byte once
exported — the property the golden fixtures and the cross-backend
equivalence tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.http.openloop.arrivals import ArrivalProcess
from repro.http.workload import pt_size_sampler
from repro.sim.randomness import RandomStreams

__all__ = [
    "FanoutSpec",
    "ScheduledRequest",
    "SessionConfig",
    "SessionSchedule",
    "compile_schedule",
]


@dataclass(frozen=True)
class ScheduledRequest:
    """One backend request: at ``time``, session ``session`` asks for
    ``size_bytes`` of response data."""

    time: float
    session: int
    size_bytes: int


@dataclass(frozen=True)
class FanoutSpec:
    """Root → aggregator → leaf RPC fan-out (web-search aggregation).

    A logical request becomes ``aggregators * leaves`` leaf requests
    released at the same instant; each leaf carries an equal share of
    the logical response size (rounded up, at least one byte).
    """

    aggregators: int = 1
    leaves: int = 1

    def __post_init__(self) -> None:
        if self.aggregators < 1 or self.leaves < 1:
            raise ValueError("fan-out tiers need at least one branch each")

    @property
    def total_leaves(self) -> int:
        return self.aggregators * self.leaves

    def split(self, size_bytes: int) -> int:
        """Per-leaf share of a logical response of ``size_bytes``."""
        return max(1, math.ceil(size_bytes / self.total_leaves))


@dataclass(frozen=True)
class SessionConfig:
    """Shape of one user session.

    ``mean_requests`` is the mean of the geometric chain length (≥ 1
    request per session); ``think_time_s`` the mean of the exponential
    pause between a session's consecutive requests; ``fanout`` the
    RPC tree each logical request expands through.
    """

    mean_requests: float = 3.0
    think_time_s: float = 0.05
    fanout: FanoutSpec = field(default_factory=FanoutSpec)

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean_requests) or self.mean_requests < 1.0:
            raise ValueError("mean_requests must be >= 1")
        if not math.isfinite(self.think_time_s) or self.think_time_s < 0:
            raise ValueError("think_time_s must be non-negative")


@dataclass(frozen=True)
class SessionSchedule:
    """A compiled open-loop schedule: sorted backend requests."""

    requests: tuple[ScheduledRequest, ...]
    n_sessions: int
    horizon: float

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_sessions < 0:
            raise ValueError("n_sessions cannot be negative")
        previous = None
        for request in self.requests:
            if request.size_bytes < 1:
                raise ValueError("request sizes must be at least one byte")
            if previous is not None and request.time < previous:
                raise ValueError("schedule times must be non-decreasing")
            previous = request.time

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[ScheduledRequest]:
        return iter(self.requests)

    @property
    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self.requests)

    def offered_rate(self) -> float:
        """Scheduled backend requests per second over the horizon."""
        return len(self.requests) / self.horizon

    @classmethod
    def from_requests(
        cls,
        requests: Iterable[ScheduledRequest],
        horizon: Optional[float] = None,
    ) -> "SessionSchedule":
        """A schedule from loose rows (sorted; sessions counted)."""
        ordered = sorted(requests, key=lambda r: (r.time, r.session))
        sessions = {r.session for r in ordered}
        if horizon is None:
            last = ordered[-1].time if ordered else 0.0
            horizon = max(last, 1e-9) * (1.0 + 1e-9) if last > 0 else 1.0
        return cls(
            requests=tuple(ordered),
            n_sessions=len(sessions),
            horizon=horizon,
        )


def compile_schedule(
    arrivals: ArrivalProcess,
    config: SessionConfig,
    seed: int,
    horizon: float,
) -> SessionSchedule:
    """Compile arrivals + session model into a deterministic schedule.

    Draws flow through two named streams — ``openloop.arrivals`` for
    the arrival process, ``openloop.sessions`` for chain lengths, think
    times, and sizes (Fig. 2(a)'s train-size CDF) — so adding a
    consumer to one never perturbs the other.  Requests that would
    start past ``horizon`` are dropped (the session is truncated at the
    horizon).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    streams = RandomStreams(seed)
    arrival_rng = streams.get("openloop.arrivals")
    session_rng = streams.get("openloop.sessions")
    size_cdf = pt_size_sampler()

    requests: list[ScheduledRequest] = []
    arrival_times = arrivals.sample_times(arrival_rng, horizon)
    for session_id, arrival in enumerate(arrival_times):
        chain = int(session_rng.geometric(1.0 / config.mean_requests))
        sizes = size_cdf.sample(session_rng, chain)
        if chain > 1 and config.think_time_s > 0:
            thinks = session_rng.exponential(config.think_time_s, chain - 1)
        else:
            thinks = [0.0] * (chain - 1)
        t = arrival
        for k in range(chain):
            if t >= horizon:
                break  # session truncated at the horizon
            logical = max(1, int(sizes[k]))
            leaf_size = config.fanout.split(logical)
            for _leaf in range(config.fanout.total_leaves):
                requests.append(
                    ScheduledRequest(
                        time=t, session=session_id, size_bytes=leaf_size
                    )
                )
            if k + 1 < chain:
                t += float(thinks[k])
    requests.sort(key=lambda r: (r.time, r.session))
    return SessionSchedule(
        requests=tuple(requests),
        n_sessions=len(arrival_times),
        horizon=horizon,
    )
