"""The ``Experiment`` protocol: sweeps as data, execution as points.

Every paper figure/table is a sweep of mutually independent
single-process simulations.  The old API exposed one ad-hoc
``run_*(XxxParams)`` function per figure, which welded point generation
to point execution and made parallel dispatch impossible.  The redesign
splits the two:

* :meth:`Experiment.points` enumerates the sweep as picklable
  :class:`Point` records derived from a params dataclass;
* :meth:`Experiment.run_point` executes exactly one point with an
  explicit integer seed (derived per point by the runner, so results
  are identical no matter how many workers execute the sweep);
* :meth:`Experiment.reduce` folds the per-point results back into the
  figure's payload (grouping repeats, assembling case lists).

Concrete experiments register themselves in
:mod:`repro.experiments.registry` under their figure ids, and
:class:`repro.runner.SweepRunner` fans the points out to a process
pool with caching, timeouts, and progress reporting.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

__all__ = ["Experiment", "Point"]


@dataclass(frozen=True)
class Point:
    """One dispatchable unit of a sweep.

    ``label`` names the point uniquely within its experiment (it keys
    the per-point seed derivation and the on-disk result cache);
    ``kwargs`` carries the point's sweep coordinates (e.g.
    ``{"n_spts": 6}``).  Both must be picklable and JSON-serializable.
    """

    label: str
    kwargs: dict = field(default_factory=dict)


class Experiment(abc.ABC):
    """A paper figure/table as a point-generating, point-running sweep.

    Subclasses set:

    * ``id`` — the canonical figure id (``"fig8"``);
    * ``aliases`` — alternative ids resolving to the same experiment
      (``("table1",)``);
    * ``title`` — one-line human description;
    * ``params_cls`` — the parameter dataclass, or None for
      parameterless experiments.  Its defaults are the paper preset;
      a ``quick()`` classmethod builds the quick one.

    Which CLI flags an experiment takes follows from the fields of its
    params class (see :attr:`uses_protocols`, :attr:`accepts_fault_plan`
    and :attr:`accepts_openloop`).
    """

    id: str = ""
    aliases: Sequence[str] = ()
    title: str = ""
    params_cls: Optional[type] = None

    def _has_field(self, name: str) -> bool:
        return name in getattr(self.params_cls, "__dataclass_fields__", ())

    @property
    def uses_protocols(self) -> bool:
        """``--protocols`` applies: the params have a ``protocol``."""
        return self._has_field("protocol")

    @property
    def accepts_fault_plan(self) -> bool:
        """``--fault-plan`` applies: the params have a ``plan_json``."""
        return self._has_field("plan_json")

    @property
    def accepts_openloop(self) -> bool:
        """``--arrivals``/``--replay`` apply: the params have ``arrivals``."""
        return self._has_field("arrivals")

    # ------------------------------------------------------------------
    # Parameter construction
    # ------------------------------------------------------------------
    def make_params(
        self, preset: str = "quick", protocol: Optional[str] = None, **overrides: Any
    ) -> Any:
        """Build a params dataclass for ``preset`` (and ``protocol``)."""
        if self.params_cls is None:
            raise NotImplementedError(f"{self.id} has no params class")
        if preset not in ("paper", "quick"):
            raise ValueError(f"unknown preset {preset!r} (use 'paper' or 'quick')")
        maker = self.params_cls if preset == "paper" else self.params_cls.quick
        if self.uses_protocols and protocol is not None:
            overrides["protocol"] = protocol
        return maker(**overrides)

    def select_protocols(self, protocols: Sequence[str]) -> list[str]:
        """The protocols this experiment actually runs for a CLI list.

        Most experiments run every requested protocol; overrides exist
        for figures the paper evaluates on a fixed protocol pair.
        """
        return list(protocols)

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def points(self, params: Any) -> Sequence[Point]:
        """Enumerate the independent simulation points of ``params``."""

    @abc.abstractmethod
    def run_point(self, params: Any, point: Point, seed: int) -> Any:
        """Execute one point; must not depend on any other point.

        ``seed`` is the point's derived seed (stable for a given root
        seed and point label).  The return value must be picklable — it
        crosses a process boundary and lands in the result cache.
        """

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        """Fold per-point results (aligned with ``points``) into the
        figure payload.  ``results`` holds None for failed points; the
        default drops them and returns the rest as a list."""
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def report(self, params: Any, payload: Any) -> None:
        """Print the payload the way the figure/table lays it out."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Experiment {self.id}: {self.title}>"
