"""Failure classification, the retry budgets, and the typed failures.

One :class:`RetryPolicy` is read in exactly one place —
:meth:`repro.runner.engine.SweepRunner._drain` — so a sweep behaves the
same whether a point fails inline, in a pool worker, or on a remote
host.  Backends never retry; they *report*: classification is by
exception type (:func:`classify_failure`), and a backend that knows
which worker ran the attempt says so on the exception
(:class:`RemoteError`, :class:`WorkerLost`, :class:`LeaseExpired`) —
the evidence the engine needs to quarantine a point whose failure two
distinct workers agree on.
"""

from __future__ import annotations

import builtins
import concurrent.futures
import concurrent.futures.process
from dataclasses import dataclass
from typing import ClassVar, Optional

__all__ = [
    "DETERMINISTIC",
    "TIMEOUT",
    "TRANSIENT",
    "DispatchError",
    "LeaseExpired",
    "RemoteError",
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


class WorkerLost(ConnectionError):
    """The worker holding this point's lease is gone (EOF, torn frame).

    A :class:`ConnectionError` subclass so classification treats it as
    transient; names the worker and host so the failure report says
    *where* the fleet collapsed rather than just "connection reset".
    """

    def __init__(self, worker: str, host: str, detail: str) -> None:
        self.worker = worker
        self.host = host
        super().__init__(f"worker {worker} on host {host} lost: {detail}")


class LeaseExpired(WorkerLost):
    """A worker stopped heartbeating while holding this point's lease."""


class DispatchError(RuntimeError):
    """The fleet itself cannot run the point: no host can spawn a
    worker, or the dispatcher shut down with the point outstanding."""


class RemoteError(Exception):
    """A point's own exception, reported by the worker that raised it.

    ``worker`` is None when the dispatcher failed the point before any
    worker saw it (a spec the frame layer cannot encode).
    """

    def __init__(
        self,
        error_type: str,
        error: str,
        worker: Optional[str] = None,
        host: Optional[str] = None,
        traceback: str = "",
    ) -> None:
        self.error_type = error_type
        self.error = error
        self.worker = worker
        self.host = host
        self.traceback = traceback
        super().__init__(f"{error_type}: {error}")


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
    kind: object = type(exc)
    if isinstance(exc, RemoteError):
        # Judged as the builtin exception its worker named, if it is
        # one: the worker survived to report a ConnectionResetError,
        # but that still describes the world around the experiment.
        kind = getattr(builtins, exc.error_type, None)
    if not isinstance(kind, type):
        return DETERMINISTIC
    if issubclass(kind, _TIMEOUT_TYPES):
        return TIMEOUT
    if issubclass(kind, _TRANSIENT_TYPES):
        return TRANSIENT
    return DETERMINISTIC


def failure_signature(exc: BaseException) -> str:
    """The identity under which failures are reported and compared.

    Type plus message, the same string wherever the attempt executed —
    coarse enough to survive differing tracebacks (line numbers,
    worker-local paths), fine enough that two unrelated bugs in one
    experiment rarely collide.
    """
    if isinstance(exc, RemoteError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class RetryPolicy:
    """The two retry budgets; immutable and picklable.

    ``max_attempts`` bounds *total* executions of one point for
    timeout/deterministic failures; ``transient_budget`` separately
    bounds retries caused by environmental faults, so a chaos storm
    that kills three workers under one point cannot exhaust the
    point's own budget.
    """

    max_attempts: int = 2
    transient_budget: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.transient_budget < 0:
            raise ValueError("transient_budget must be >= 0")

    #: spec-grammar aliases accepted by :meth:`parse`.
    _FIELDS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("attempts", "max_attempts"),
        ("transient", "transient_budget"),
    )

    @classmethod
    def parse(cls, spec: str) -> "RetryPolicy":
        """Build a policy from the CLI grammar.

        ``--retry-policy "attempts=3,transient=8"`` — every key
        optional, unknown or repeated keys rejected.  An empty spec is
        the default policy.
        """
        aliases = dict(cls._FIELDS)
        kwargs: dict[str, int] = {}
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
            if aliases[key] in kwargs:
                raise ValueError(f"repeated retry-policy key {key!r} in {spec!r}")
            try:
                kwargs[aliases[key]] = int(raw)
            except ValueError as exc:
                raise ValueError(
                    f"bad retry-policy value {raw!r} for {key}: {exc}"
                ) from None
        return cls(**kwargs)

    def to_spec(self) -> str:
        """The canonical spec string (``parse`` round-trips it)."""
        return ",".join(
            f"{alias}={getattr(self, name)}" for alias, name in self._FIELDS
        )

    def allows(self, attempt: int) -> bool:
        """True while ``attempt`` (1-based) is inside the budget."""
        return attempt <= self.max_attempts

    def allows_transient(self, transient_retries: int) -> bool:
        """True while another environmental retry fits the budget."""
        return transient_retries < self.transient_budget
