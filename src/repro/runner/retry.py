"""Failure classification and the retry budgets.

One :class:`RetryPolicy` is read in exactly one place —
:meth:`repro.runner.engine.SweepRunner._drain` — so a sweep behaves the
same whether a point fails inline or in a pool worker.  Backends never
retry; they *report* a failed attempt as the exception on its future,
and :func:`classify_failure` sorts it by type.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "DETERMINISTIC",
    "TIMEOUT",
    "TRANSIENT",
    "RetryPolicy",
    "classify_failure",
    "failure_signature",
]

#: classification labels.  Plain strings (not an enum) so they embed
#: directly in failure reports and stats without a serialization layer.
TRANSIENT = "transient"
TIMEOUT = "timeout"
DETERMINISTIC = "deterministic"


#: exception types that say something broke *around* the point, not in
#: it: retry without consuming the deterministic budget.
#: ConnectionError covers ConnectionResetError/BrokenPipeError; EOFError
#: and a broken executor are what a mid-task worker death looks like
#: from a pool (``BrokenProcessPool`` subclasses ``BrokenExecutor``, so
#: naming the base keeps ``multiprocessing`` out of a process that never
#: starts a worker).
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    ConnectionError,
    EOFError,
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
    bug may pass on resubmission).
    """
    if isinstance(exc, _TIMEOUT_TYPES):
        return TIMEOUT
    if isinstance(exc, _TRANSIENT_TYPES):
        return TRANSIENT
    return DETERMINISTIC


def failure_signature(exc: BaseException) -> str:
    """The identity under which a failure is reported.

    Type plus message, the same string wherever the attempt executed —
    coarse enough to survive differing tracebacks (line numbers,
    worker-local paths), fine enough that two unrelated bugs in one
    experiment rarely collide.
    """
    return f"{type(exc).__name__}: {exc}"


def _count(raw: str, least: int, what: str) -> int:
    """``raw`` as an integer >= ``least``; ``int()`` alone would also
    take ``1_0``, ``+3`` and non-ASCII digits such as ``٣``."""
    try:
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError("expected decimal digits 0-9")
        value = int(raw)  # may still exceed the int-string digit limit
    except ValueError as exc:
        raise ValueError(f"bad {what}: {exc}") from None
    if value < least:
        raise ValueError(f"bad {what}: must be >= {least}")
    return value


@dataclass(frozen=True)
class RetryPolicy:
    """The two retry budgets; immutable and picklable.

    ``max_attempts`` bounds *total* executions of one point for
    timeout/deterministic failures; ``transient_budget`` separately
    bounds retries caused by environmental faults, so a pool whose
    workers die three times under one point cannot exhaust the point's
    own budget.
    """

    max_attempts: int = 2
    transient_budget: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.transient_budget < 0:
            raise ValueError("transient_budget must be >= 0")

    #: spec-grammar aliases accepted by :meth:`parse`, with the least
    #: value each field takes.
    _FIELDS: ClassVar[tuple[tuple[str, str, int], ...]] = (
        ("attempts", "max_attempts", 1),
        ("transient", "transient_budget", 0),
    )

    @classmethod
    def parse(cls, spec: str) -> "RetryPolicy":
        """Build a policy from the CLI grammar.

        ``--retry-policy "attempts=3,transient=8"`` — every key
        optional, unknown or repeated keys rejected, values plain ASCII
        decimal integers.  An empty spec is the default policy.  Every
        error names the spec key.
        """
        fields = {alias: (name, least) for alias, name, least in cls._FIELDS}
        kwargs: dict[str, int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or key not in fields:
                known = ",".join(alias for alias, _, _ in cls._FIELDS)
                raise ValueError(
                    f"bad retry-policy term {part!r} (grammar: "
                    f"key=value with keys {known})"
                )
            name, least = fields[key]
            if name in kwargs:
                raise ValueError(f"repeated retry-policy key {key!r} in {spec!r}")
            what = f"retry-policy value {raw!r} for {key}"
            kwargs[name] = _count(raw, least, what)
        return cls(**kwargs)

    def allows(self, attempt: int) -> bool:
        """True while ``attempt`` (1-based) is inside the budget."""
        return attempt <= self.max_attempts

    def allows_transient(self, transient_retries: int) -> bool:
        """True while another environmental retry fits the budget."""
        return transient_retries < self.transient_budget
