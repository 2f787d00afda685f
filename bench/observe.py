"""Observing a run from outside the program.

:class:`Observer` wraps four things and nothing hotter: ``__init__`` of
``Simulator``, ``Link`` and ``TcpSource`` (to keep references, so the
public counters can be read once a point has run) and ``Simulator.run``
(called a few dozen times per point).  Untraced runs therefore carry no
per-event or per-packet instrumentation.

:class:`ObservedExperiment` is a delegating proxy the harness hands to
``SweepRunner``: the inline backend calls ``run_point`` on the live
object, so the proxy sees every point boundary, harvests the counters
there and — when a :class:`Tracer` is attached — records the
``point -> {build, run, collect}`` and ``reduce`` spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterator, Optional, Sequence

__all__ = ["ObservedExperiment", "Observer", "Span", "Tracer", "span"]

_now = time.perf_counter


@dataclass
class Span:
    """One timed interval; ``parent`` is the id of the span that caused it."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    iteration: int
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end,
            "iteration": self.iteration, **self.attrs,
        }


class Tracer:
    """In-memory span recorder; the caller writes the spans out at exit.

    ``profiler`` (a :class:`bench.attribution.PhaseProfiler` or None) is
    switched to the ``"build"`` phase between a point's start and its
    first ``Simulator.run``, so build-time work can be told apart.
    """

    def __init__(self, profiler: Any = None) -> None:
        self.spans: list[Span] = []
        self.profiler = profiler
        #: id stamped on every span; a traced run has one traced
        #: iteration, so it stays 0 unless a caller traces several.
        self.iteration = 0
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, **attrs: Any) -> Span:
        """Record a finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, start, end,
                    self.iteration, attrs)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.add(name, _now(), 0.0, **attrs)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = _now()

    def phase(self, name: str) -> None:
        if self.profiler is not None:
            self.profiler.switch(name)

    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.end - s.start
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s.end - s.start) - covered.get(s.id, 0.0)
            out[s.name] = out.get(s.name, 0.0) + own
        return out


def span(tracer: Optional[Tracer], name: str, **attrs: Any) -> ContextManager[Any]:
    """``tracer.span(...)``, or nothing at all in an untraced run."""
    return nullcontext() if tracer is None else tracer.span(name, **attrs)


#: counters folded by ``max`` instead of ``+`` when points are merged.
_MAX_KEYS = frozenset({"net.peak_queue_pkts"})


def merge_counts(into: dict[str, float], other: dict[str, float]) -> None:
    for key, value in other.items():
        if key in _MAX_KEYS:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


class Observer:
    """Installs the constructor and ``Simulator.run`` wrappers.

    Use as a context manager around everything that simulates; the
    originals are restored on exit.  :meth:`harvest` folds the public
    counters of every object built since the last harvest into
    :attr:`counts`, checks queue conservation, and drops the references
    so a finished point's objects can be freed.
    """

    def __init__(self) -> None:
        self.counts: dict[str, float] = {}
        #: host seconds inside ``Simulator.run`` since the last reset
        #: (the untraced cost of the event loop and all it calls).
        self.run_s = 0.0
        #: queues whose conservation identity did not hold.
        self.violations: list[str] = []
        self.tracer: Optional[Tracer] = None
        self._sims: list[Any] = []
        self._links: list[Any] = []
        self._sources: list[Any] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._point_start: Optional[float] = None
        self._last_run_end: Optional[float] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "Observer":
        from repro.net.link import Link
        from repro.sim.kernel import Simulator
        from repro.tcp.base import TcpSource

        self._keep(Simulator, self._sims)
        self._keep(Link, self._links)
        self._keep(TcpSource, self._sources)
        self._wrap_run(Simulator)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)

    def _keep(self, cls: Any, registry: list[Any]) -> None:
        original = cls.__init__

        def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            registry.append(obj)

        self._originals.append((cls, "__init__", original))
        cls.__init__ = __init__

    def _wrap_run(self, simulator_cls: Any) -> None:
        original = simulator_cls.run
        observer = self

        def run(sim: Any, *args: Any, **kwargs: Any) -> None:
            start = _now()
            tracer = observer.tracer
            if tracer is not None and observer._point_start is not None:
                # First run of this point: everything before it was
                # topology/connection/schedule construction.
                tracer.add("build", observer._point_start, start)
                observer._point_start = None
                tracer.phase("main")
            try:
                original(sim, *args, **kwargs)
            finally:
                end = _now()
                observer.run_s += end - start
                observer._last_run_end = end
                if tracer is not None:
                    tracer.add("run", start, end)

        self._originals.append((simulator_cls, "run", original))
        simulator_cls.run = run

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget accumulated counters (between iterations)."""
        self.harvest()
        self.counts = {}
        self.run_s = 0.0

    def harvest(self) -> None:
        counts: dict[str, float] = {}
        if self._sims:
            counts["sim.events"] = sum(s.events_executed for s in self._sims)
        if self._links:
            queues = [link.queue for link in self._links]
            counts["net.links"] = len(self._links)
            counts["net.pkt_hops"] = sum(
                link.stats.tx_packets for link in self._links
            )
            counts["net.drops"] = sum(q.stats.dropped for q in queues)
            counts["net.marks"] = sum(q.stats.marked for q in queues)
            counts["net.peak_queue_pkts"] = max(
                q.stats.peak_length for q in queues
            )
            for link, q in zip(self._links, queues):
                s = q.stats
                if s.enqueued != s.dequeued + s.evicted + len(q):
                    self.violations.append(
                        f"{link.name}: enqueued {s.enqueued} != dequeued "
                        f"{s.dequeued} + evicted {s.evicted} + resident {len(q)}"
                    )
        if self._sources:
            stats = [src.stats for src in self._sources]
            counts["tcp.connections"] = len(stats)
            counts["tcp.segments_sent"] = sum(s.segments_sent for s in stats)
            counts["tcp.retransmits"] = sum(s.retransmits for s in stats)
            counts["tcp.timeouts"] = sum(s.timeouts for s in stats)
            for name in ("probes_completed", "probes_timed_out",
                         "delay_decreases"):
                counts[f"core.{name}"] = sum(
                    getattr(src, name, 0) for src in self._sources
                )
        merge_counts(self.counts, counts)
        del self._sims[:], self._links[:], self._sources[:]

    # ------------------------------------------------------------------
    # Point boundaries, called by ObservedExperiment
    # ------------------------------------------------------------------
    def point_started(self) -> None:
        self._point_start = _now()
        self._last_run_end = None
        if self.tracer is not None:
            self.tracer.phase("build")

    def point_finished(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            end = _now()
            if self._point_start is not None:  # the point never ran the sim
                tracer.add("build", self._point_start, end)
                tracer.phase("main")
            elif self._last_run_end is not None:
                tracer.add("collect", self._last_run_end, end)
        self._point_start = None
        self.harvest()


class ObservedExperiment:
    """Delegates to a registered experiment, marking point boundaries.

    Only the inline backend ever calls this object; a process pool
    re-resolves the experiment by ``id`` in its workers, which is why
    the pool workload takes its counters from a serial reference pass.
    """

    def __init__(self, inner: Any, observer: Observer) -> None:
        self._inner = inner
        self._observer = observer
        self.id = inner.id
        self.points_run = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def points(self, params: Any) -> Sequence[Any]:
        return self._inner.points(params)

    def run_point(self, params: Any, point: Any, seed: int) -> Any:
        observer = self._observer
        self.points_run += 1
        with span(observer.tracer, "point", label=point.label,
                  protocol=params.protocol):
            observer.point_started()
            try:
                return self._inner.run_point(params, point, seed)
            finally:
                observer.point_finished()

    def reduce(self, params: Any, points: Sequence[Any], results: Sequence[Any]) -> Any:
        with span(self._observer.tracer, "reduce", protocol=params.protocol):
            return self._inner.reduce(params, points, results)
