"""simlint — whole-program simulator-correctness linter.

There is one way to run it: ``python -m repro.lint [paths...]
[--select IDS] [--list-rules] [--format text|json]`` (paths default to
the installed ``repro`` package), always a cold pass over the whole
tree, exit 0 clean / 1 findings / 2 usage error.  Per-file rules
(:mod:`repro.lint.rules`) enforce the invariants every reproduced
figure rests on: deterministic replay (SIM001/SIM002), precision-safe
time handling (SIM003), state isolation between sweep points (SIM005),
sanctioned fault/executor/socket seams (SIM008, SIM010, SIM017), and
justified suppressions (SIM016).  Cross-module rules (SIM011-SIM015,
:mod:`repro.lint.xrules`) analyze the whole tree at once through a
:class:`~repro.lint.project.ProjectContext` — RNG and wall-clock taint
through helper returns, SweepBackend picklability, unit-suffix
dimension checks, and experiment-registration conformance.  Retired
ids (SIM004, SIM006, SIM007, SIM009) are not reused; CONTRIBUTING.md
says what covers each.

Suppress a deliberate violation with a ``# simlint: disable=SIM00x``
comment plus a justification (SIM016 polices the justification).

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
