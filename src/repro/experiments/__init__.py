"""Experiment harnesses: one module per paper figure/table.

| Module                | Reproduces            | Registry ids        |
|-----------------------|-----------------------|---------------------|
| ``workload_figs``     | Fig. 1, Fig. 2        | ``fig1``, ``fig2``  |
| ``motivation``        | Fig. 4, Fig. 6        | ``fig4``, ``fig6``  |
| ``concurrency``       | Fig. 5, Fig. 7        | ``fig5``, ``fig7``  |
| ``large_scale``       | Fig. 8                | ``fig8``            |
| ``properties``        | Fig. 9                | ``fig9``            |
| ``fairness``          | Fig. 10               | ``fig10``           |
| ``multihop``          | Fig. 11               | ``fig11``           |
| ``fattree``           | Fig. 12, Table I      | ``fig12``, ``table1``|
| ``testbed``           | Fig. 13               | ``fig13a``, ``fig13be``|
| ``ablation``          | design-choice studies | ``ablations``       |
| ``incast``            | incast collapse       | ``incast``          |

Every experiment implements the :class:`Experiment` protocol — a params
dataclass with ``paper()``/``quick()`` presets, a :meth:`points`
enumeration of independent simulation points, a per-point
:meth:`run_point`, and a :meth:`reduce` fold — and registers itself
under its figure ids::

    from repro.experiments import registry
    from repro.runner import SweepRunner

    experiment = registry.get("fig8")
    params = experiment.make_params("quick", protocol="trim")
    payload = SweepRunner(jobs=4).run(experiment, params, seed=1)

``python -m repro.experiments <id>`` is the command-line face of the
same machinery.  Importing this package loads none of its modules;
``registry`` resolves on first access, and ``registry.get(id)`` imports just the module its table names for that
id.  Params, result classes and the ad-hoc ``run_*`` helpers live on
their defining modules (``repro.experiments.fattree.FatTreeParams``,
``repro.experiments.fattree.run_fattree`` and so on); the registry is
the supported way in.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments import registry as registry

_lazy_exports(__name__, {
    "registry": "repro.experiments.registry",
})
