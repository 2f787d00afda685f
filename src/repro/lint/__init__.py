"""simlint — whole-program simulator-correctness linter.

Run it with ``python -m repro.lint [paths...]`` (defaults to the
installed ``repro`` package).  Per-file rules enforce the invariants
every reproduced figure rests on: deterministic replay (SIM001/SIM002),
precision-safe time handling (SIM003), state isolation between sweep
points (SIM004/SIM005), kernel discipline (SIM006), the Experiment
sweep contract (SIM007), sanctioned fault/executor seams
(SIM008, SIM010), and justified suppressions (SIM016).  Cross-module
rules (SIM011-SIM015, :mod:`repro.lint.xrules`) analyze the whole tree
at once through a :class:`~repro.lint.project.ProjectContext` — RNG and
wall-clock taint through helper returns, SweepBackend picklability,
unit-suffix dimension checks, and experiment-registration conformance.

Suppress a deliberate violation with a ``# simlint: disable=SIM00x``
comment plus a justification (SIM016 polices the justification), or a
checked-in baseline entry (:mod:`repro.lint.baseline`).  The engine
re-lints incrementally — a changed module plus its reverse-import
closure — via :mod:`repro.lint.cache`, and emits text, JSON, or SARIF
2.1 (:mod:`repro.lint.sarif`) for code scanning.

The runtime complement — packet-conservation and protocol-state checks
while a simulation executes — lives in :mod:`repro.sim.invariants` and
is enabled with ``Simulator(check_invariants=True)`` or the CLI's
``--check-invariants`` flag.
"""

from repro.lint import rules as _rules  # registers the per-file rule set
from repro.lint import xrules as _xrules  # registers the cross-module rules
from repro.lint.core import (
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    all_rules,
    lint_module_in_project,
    lint_paths,
    lint_source,
    register_rule,
)
from repro.lint.project import ProjectContext

del _rules, _xrules

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "lint_module_in_project",
    "lint_paths",
    "lint_source",
    "register_rule",
]
