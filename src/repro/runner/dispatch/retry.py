"""Error-classified retry with seeded exponential backoff.

One :class:`RetryPolicy` is shared by the sweep engine's generic retry
loop and the dispatch backend's fleet logic, so a sweep behaves the
same whether a point fails inline, in a pool worker, or on a remote
host.  The policy has three independent knobs:

* a **budget** (``max_attempts`` total attempts per point, plus a
  separate, more generous ``transient_budget`` for failures that say
  nothing about the point itself — worker crashes, lease expiries,
  connection resets);
* a **backoff schedule**: ``base_delay * multiplier**(attempt-1)``,
  capped at ``max_delay``;
* **deterministic jitter**: each delay is stretched by up to
  ``jitter``× drawn from a generator seeded from ``(seed, point key,
  and nothing else)`` — so the same seed reproduces the same jitter
  sequence on every run and every host, while distinct points still
  de-synchronize their retries (no thundering-herd resubmission after
  a host dies).

Failure *classification* is the policy's other half: transient faults
are retried on another worker immediately-ish, timeouts make the
engine resubmit the straggler (earliest submission wins), and a
deterministic failure — the same exception from two distinct workers —
is quarantined rather than retried forever.  Classification is by
exception type (:func:`classify_failure`); the dispatch backend
additionally compares error *signatures* across workers to promote a
repeated failure to deterministic.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
from dataclasses import dataclass
from typing import ClassVar

from repro.sim.randomness import derive_seed, seeded_rng

__all__ = [
    "DETERMINISTIC",
    "TIMEOUT",
    "TRANSIENT",
    "BackoffSchedule",
    "DispatchError",
    "LeaseExpired",
    "QuarantinedPoint",
    "RetryPolicy",
    "WorkerLost",
    "classify_failure",
    "failure_signature",
]

#: classification labels.  Plain strings (not an enum) so they embed
#: directly in telemetry rows, quarantine records, and stats without a
#: serialization layer.
TRANSIENT = "transient"
TIMEOUT = "timeout"
DETERMINISTIC = "deterministic"


class LeaseExpired(ConnectionError):
    """A worker stopped heartbeating while holding this point's lease.

    Raised (on futures, never across the wire) by the dispatch backend
    when a lease deadline passes; a :class:`ConnectionError` subclass
    so generic classification treats it as transient.
    """


class DispatchError(RuntimeError):
    """A point's *terminal* dispatch outcome — budgets exhausted.

    Subclasses are deliberately **not** transient-classified: when the
    backend raises one on a future, its internal budgets are already
    spent, and the engine must not wrap another retry loop around it.
    The engine treats any :class:`DispatchError` as final.
    """


class WorkerLost(DispatchError):
    """Environmental retries exhausted: every attempt lost its worker.

    Carries the transient retry count and the workers that died under
    the point, so the failure report says *where* the fleet kept
    collapsing rather than just "connection reset".
    """

    def __init__(self, label: str, transient_retries: int, workers: tuple[str, ...]) -> None:
        self.label = label
        self.transient_retries = transient_retries
        self.workers = workers
        roster = ", ".join(workers) if workers else "(none)"
        super().__init__(
            f"point {label!r}: lost {transient_retries} worker(s) "
            f"({roster}); transient retry budget exhausted"
        )


class QuarantinedPoint(DispatchError):
    """The same failure signature from two distinct workers.

    Two independent processes (possibly on different hosts) agreeing on
    the exception is taken as proof the failure is the point's own —
    the point is written to the quarantine journal and the sweep moves
    on instead of burning budget re-proving a deterministic bug.
    """

    def __init__(
        self,
        label: str,
        signature: str,
        workers: tuple[str, ...],
        quarantine_path: str,
    ) -> None:
        self.label = label
        self.signature = signature
        self.workers = workers
        self.quarantine_path = quarantine_path
        super().__init__(
            f"point {label!r} quarantined after identical failure on "
            f"workers {', '.join(workers)}: {signature}"
        )


#: exception types that say something broke *around* the point, not in
#: it: retry on another worker without consuming the deterministic
#: budget.  ConnectionError covers ConnectionResetError/BrokenPipeError
#: and the frame/lease errors that subclass it; EOFError and the broken
#: -pool types are what a mid-task worker death looks like from a pool.
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    ConnectionError,
    EOFError,
    concurrent.futures.process.BrokenProcessPool,
    concurrent.futures.BrokenExecutor,
)

_TIMEOUT_TYPES: tuple[type[BaseException], ...] = (
    TimeoutError,
    concurrent.futures.TimeoutError,
)


def classify_failure(exc: BaseException) -> str:
    """Map one failure to ``transient`` / ``timeout`` / ``deterministic``.

    Anything not recognizably environmental is *presumed* deterministic
    — the caller still retries it within budget (a flaky experiment
    bug may pass on resubmission), but a repeat of the same signature
    from a different worker is proof enough to quarantine.
    """
    if isinstance(exc, _TIMEOUT_TYPES):
        return TIMEOUT
    if isinstance(exc, _TRANSIENT_TYPES):
        return TRANSIENT
    return DETERMINISTIC


def failure_signature(error_type: str, message: str) -> str:
    """The identity under which failures are compared for quarantine.

    Type plus message — coarse enough to survive differing tracebacks
    (line numbers, worker-local paths), fine enough that two unrelated
    bugs in one experiment rarely collide.
    """
    return f"{error_type}: {message}"


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff + budget parameters; immutable and picklable.

    ``max_attempts`` bounds *total* executions of one point for
    timeout/deterministic failures; ``transient_budget`` separately
    bounds retries caused by environmental faults, so a chaos storm
    that kills three workers under one point cannot exhaust the
    point's own budget.
    """

    max_attempts: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    transient_budget: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.transient_budget < 0:
            raise ValueError("transient_budget must be >= 0")

    #: spec-grammar aliases accepted by :meth:`parse`.
    _FIELDS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("attempts", "max_attempts"),
        ("base", "base_delay"),
        ("mult", "multiplier"),
        ("cap", "max_delay"),
        ("jitter", "jitter"),
        ("transient", "transient_budget"),
        ("seed", "seed"),
    )

    @classmethod
    def parse(cls, spec: str) -> "RetryPolicy":
        """Build a policy from the CLI grammar.

        ``--retry-policy "attempts=3,base=0.1,mult=2,cap=5,jitter=0.5,
        transient=8,seed=7"`` — every key optional, unknown keys
        rejected.  An empty spec is the default policy.
        """
        aliases = dict(cls._FIELDS)
        kwargs: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in aliases:
                known = ",".join(alias for alias, _ in cls._FIELDS)
                raise ValueError(
                    f"bad retry-policy term {part!r} (grammar: "
                    f"key=value with keys {known})"
                )
            field_name = aliases[key]
            try:
                if field_name in ("max_attempts", "transient_budget", "seed"):
                    kwargs[field_name] = int(raw)
                else:
                    kwargs[field_name] = float(raw)
            except ValueError as exc:
                raise ValueError(
                    f"bad retry-policy value {raw!r} for {key}: {exc}"
                ) from None
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_spec(self) -> str:
        """The canonical spec string (``parse`` round-trips it)."""
        values = {
            "attempts": self.max_attempts,
            "base": self.base_delay,
            "mult": self.multiplier,
            "cap": self.max_delay,
            "jitter": self.jitter,
            "transient": self.transient_budget,
            "seed": self.seed,
        }
        return ",".join(f"{key}={value}" for key, value in values.items())

    def allows(self, attempt: int) -> bool:
        """True while ``attempt`` (1-based) is inside the budget."""
        return attempt <= self.max_attempts

    def allows_transient(self, transient_retries: int) -> bool:
        """True while another environmental retry fits the budget."""
        return transient_retries < self.transient_budget

    def schedule(self, key: str) -> "BackoffSchedule":
        """The per-point deterministic backoff stream for ``key``.

        The stream is seeded from ``(policy.seed, key)`` alone — same
        seed ⇒ same jitter sequence, on any host, in any process.
        """
        return BackoffSchedule(self, key)


class BackoffSchedule:
    """One point's materialized backoff delays, deterministic in seed."""

    __slots__ = ("policy", "key", "_draws")

    def __init__(self, policy: RetryPolicy, key: str) -> None:
        self.policy = policy
        self.key = key
        self._draws: list[float] = []

    def _draw(self, index: int) -> float:
        """The ``index``-th jitter draw in [0, 1), lazily materialized.

        Draws are a pure function of (seed, key, index): the whole
        prefix is regenerated from one generator so that querying
        delays out of order cannot change their values.
        """
        while len(self._draws) <= index:
            rng = seeded_rng(derive_seed(self.policy.seed, f"retry/{self.key}"))
            self._draws = [float(u) for u in rng.random(len(self._draws) + 8)]
        return self._draws[index]

    def delay(self, attempt: int) -> float:
        """Seconds to wait before re-submission number ``attempt`` (1-based:
        the delay after the first failure is ``delay(1)``)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        policy = self.policy
        raw = policy.base_delay * policy.multiplier ** (attempt - 1)
        capped = min(policy.max_delay, raw)
        return capped * (1.0 + policy.jitter * self._draw(attempt - 1))
