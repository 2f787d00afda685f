"""Per-package attribution of a harness-owned ``cProfile`` pass.

Every profiled function's self time and call count is bucketed by the
package of its *source file* (``.../repro/<package>/...``), never by
function name, so the attribution survives any refactor inside a
package.  C builtins, the standard library and numpy have no package of
the program: their self time is charged to the package that called
them (``heapq`` under ``repro.sim`` counts as ``sim``).  One level of
that is exact — the profiler keeps self time per caller edge — and
deeper foreign chains are split by each edge's share of the callee's
total time.

``cProfile`` inflates Python-level calls but not work inside native
code, so traced shares are a map of where to look, not a measurement of
record: end-to-end numbers always come from untraced runs.
"""

from __future__ import annotations

import cProfile
import os
import sys
from typing import Any, Iterable, Optional

from bench import BENCH_DIR

__all__ = ["HARNESS", "OTHER", "WAIT", "PhaseProfiler", "attribute", "layer_of"]

#: bucket for the benchmark's own files.
HARNESS = "harness"
#: bucket for ``repro`` files outside any package directory.
OTHER = "other"
#: bucket for time blocked on another process or thread: waiting is not
#: work, so it is kept apart from the self time of whoever waited.
WAIT = "wait"

_BENCH_PREFIX = str(BENCH_DIR).replace("\\", "/") + "/"
#: public scheduling entry points of the kernel, for ``sim.sched_calls``.
_SCHEDULE_NAMES = frozenset({"schedule", "schedule_at", "schedule_transient"})
#: blocking primitives, as ``cProfile`` names builtins.
_BLOCKING = (
    "'acquire' of '_thread.lock'",
    "'acquire' of '_thread.RLock'",
    "'poll' of 'select.",
    "select.select",
    "posix.waitpid",
    "time.sleep",
)


def layer_of(filename: str) -> Optional[str]:
    """The bucket a source file belongs to, or None for foreign code."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        rest = path[marker + len("/repro/"):]
        package, sep, _ = rest.partition("/")
        return package if sep else OTHER
    if path.startswith(_BENCH_PREFIX):
        return HARNESS
    return None


class PhaseProfiler:
    """One ``cProfile.Profile`` per named phase, at most one enabled.

    A process forked while a phase is enabled would inherit the active
    profile hook and run several times slower; an at-fork hook clears it
    in the child, so a traced pool pass profiles the parent only and
    leaves its workers unperturbed.
    """

    _fork_hook_installed = False

    def __init__(self) -> None:
        self._profiles: dict[str, cProfile.Profile] = {}
        self._active: Optional[cProfile.Profile] = None
        if not PhaseProfiler._fork_hook_installed:
            os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
            PhaseProfiler._fork_hook_installed = True

    def switch(self, phase: Optional[str]) -> None:
        """Stop the active phase and start ``phase`` (None: just stop)."""
        if self._active is not None:
            self._active.disable()
            self._active = None
        if phase is not None:
            profile = self._profiles.get(phase)
            if profile is None:
                profile = self._profiles[phase] = cProfile.Profile()
            self._active = profile
            profile.enable()

    def stats(self, phase: str) -> list[Any]:
        profile = self._profiles.get(phase)
        return [] if profile is None else profile.getstats()


def _bucket_of(code: Any) -> Optional[str]:
    # Builtins appear as strings ("<built-in method _heapq.heappush>").
    if isinstance(code, str):
        return WAIT if any(name in code for name in _BLOCKING) else None
    return layer_of(code.co_filename)


def attribute(entries: Iterable[Any]) -> dict[str, dict[str, float]]:
    """Bucket ``cProfile.Profile.getstats()`` entries by package.

    Returns ``{bucket: {"self_s", "calls", "sched_calls"}}``.  The self
    times over all buckets sum to the profile's total self time.
    """
    entries = list(entries)
    bucket = {id(e.code): _bucket_of(e.code) for e in entries}
    # callee -> [(caller, self time under that caller, total under it)]
    callers: dict[int, list[tuple[int, float, float]]] = {}
    for e in entries:
        for sub in e.calls or ():
            callers.setdefault(id(sub.code), []).append(
                (id(e.code), sub.inlinetime, sub.totaltime)
            )

    # Who a foreign function works for: a distribution over buckets,
    # propagated down foreign call chains until it stops changing.
    shares: dict[int, dict[str, float]] = {}
    foreign = [id(e.code) for e in entries if bucket[id(e.code)] is None]
    for _ in range(8):
        for fid in foreign:
            edges = callers.get(fid)
            if not edges:
                shares[fid] = {HARNESS: 1.0}  # called by the profiler itself
                continue
            weight = sum(total for _c, _s, total in edges)
            dist: dict[str, float] = {}
            for caller, _self, total in edges:
                w = total / weight if weight > 0 else 1.0 / len(edges)
                owner = bucket.get(caller)
                if owner is not None:
                    dist[owner] = dist.get(owner, 0.0) + w
                else:
                    for name, part in shares.get(caller, {HARNESS: 1.0}).items():
                        dist[name] = dist.get(name, 0.0) + w * part
            shares[fid] = dist

    out: dict[str, dict[str, float]] = {}

    def charge(name: str, seconds: float) -> None:
        row = out.setdefault(name, {"self_s": 0.0, "calls": 0, "sched_calls": 0})
        row["self_s"] += seconds

    for e in entries:
        cid = id(e.code)
        owner = bucket[cid]
        if owner is not None:
            charge(owner, e.inlinetime)
            row = out[owner]
            row["calls"] += e.callcount
            if owner == "sim" and getattr(e.code, "co_name", "") in _SCHEDULE_NAMES:
                row["sched_calls"] += e.callcount
            continue
        charged = 0.0
        for caller, self_s, _total in callers.get(cid, ()):
            caller_owner = bucket.get(caller)
            if caller_owner is not None:
                charge(caller_owner, self_s)
            else:
                for name, part in shares.get(caller, {HARNESS: 1.0}).items():
                    charge(name, self_s * part)
            charged += self_s
        # Calls from outside the profiled region (no caller edge).
        charge(HARNESS, e.inlinetime - charged)
    return out
