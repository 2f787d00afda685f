"""simlint — whole-program simulator-correctness linter.

There is one way to run it: ``python -m repro.lint [paths...]
[--select IDS] [--list-rules] [--format text|json]`` (paths default to
the installed ``repro`` package), always a cold pass over the whole
tree, exit 0 clean / 1 findings / 2 usage error.  Per-file rules
(:mod:`repro.lint.rules`) enforce the invariants every reproduced
figure rests on: deterministic replay (SIM001/SIM002), precision-safe
time handling (SIM003), state isolation between sweep points (SIM005),
sanctioned fault/executor/socket seams (SIM008, SIM010, SIM017), and
justified suppressions (SIM016).  Cross-module rules (SIM011, SIM012,
SIM014, SIM015, :mod:`repro.lint.xrules`) analyze the whole tree at
once through a :class:`~repro.lint.project.ProjectContext` — RNG and
wall-clock taint through helper returns, unit-suffix dimension checks,
and experiment-registration conformance.  Retired ids (SIM004, SIM006,
SIM007, SIM009, SIM013) are not reused; CONTRIBUTING.md says what
covers each.

Suppress a deliberate violation with a ``# simlint: disable=SIM00x``
comment plus a justification (SIM016 polices the justification).

The runtime complement — packet-conservation and protocol-state checks
while a simulation executes — lives in :mod:`repro.sim.invariants` and
is enabled with ``Simulator(check_invariants=True)`` or the CLI's
``--check-invariants`` flag.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.core import Finding as Finding
    from repro.lint.core import ModuleContext as ModuleContext
    from repro.lint.core import ProjectRule as ProjectRule
    from repro.lint.core import Rule as Rule
    from repro.lint.core import all_rules as all_rules
    from repro.lint.core import lint_module_in_project as lint_module_in_project
    from repro.lint.core import lint_paths as lint_paths
    from repro.lint.core import lint_source as lint_source
    from repro.lint.core import register_rule as register_rule
    from repro.lint.project import ProjectContext as ProjectContext

_lazy_exports(__name__, {
    "Finding": "repro.lint.core",
    "ModuleContext": "repro.lint.core",
    "ProjectRule": "repro.lint.core",
    "Rule": "repro.lint.core",
    "all_rules": "repro.lint.core",
    "lint_module_in_project": "repro.lint.core",
    "lint_paths": "repro.lint.core",
    "lint_source": "repro.lint.core",
    "register_rule": "repro.lint.core",
    "ProjectContext": "repro.lint.project",
})
