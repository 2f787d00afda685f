"""Cross-module simlint rules (SIM011, SIM012, SIM014, SIM015).

These rules run on a :class:`~repro.lint.project.ProjectContext` —
they follow values through assignments, helper returns, and imports,
so a determinism hole can no longer hide one call frame away from its
construction site.  Each protects a whole-program invariant:

SIM011
    Every RNG in the tree provably originates from
    ``repro.sim.randomness`` — a helper that launders an unseeded
    ``random.Random()``/``default_rng()`` through a return value taints
    every call site, in any module.
SIM012
    Wall-clock-derived values (``time.time``, and also
    ``perf_counter``, which SIM002 permits for display) never flow into
    simulated event times handed to ``schedule``/``schedule_at``.
SIM014
    Unit-suffixed identifiers (``_s``/``_bytes``/``_pkts``/``_bps``...)
    are never added, subtracted, compared, or keyword-passed across
    units — the seconds/bytes mix-up class of kernel/link/queue bug.
SIM015
    Registered experiments declare their contract (``id``, ``title``,
    ``params_cls``), and ``run_point`` emits telemetry only through the
    :mod:`repro.obs` bus (no prints, no ad-hoc file writes).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import (
    Finding,
    ModuleContext,
    ProjectRule,
    dotted_name,
    register_rule,
)
from repro.lint.project import (
    ProjectContext,
    expr_taint_reason,
    local_tainted_names,
)
from repro.lint.rules import is_randomness_home

__all__ = [
    "ExperimentConformanceRule",
    "RngProvenanceRule",
    "UnitDimensionRule",
    "WallClockTaintRule",
]

#: numpy.random generator constructors (entropy-less calls are
#: nondeterministic anywhere, including inside sim/randomness.py).
_NP_GENERATOR_CTORS = frozenset(
    {"default_rng", "RandomState", "Generator", "PCG64", "PCG64DXSM",
     "MT19937", "Philox", "SFC64"}
)


# ---------------------------------------------------------------------------
# SIM011 — RNG provenance taint
# ---------------------------------------------------------------------------


def _rng_seed(module: ModuleContext, call: ast.Call, resolved: str) -> str:
    """Reason when ``call`` constructs RNG state of illegal provenance."""
    if resolved in ("random.Random", "random.SystemRandom"):
        return f"stdlib {resolved}() (not derived from sim.randomness)"
    if resolved.startswith("numpy.random."):
        tail = resolved.rsplit(".", 1)[1]
        if tail in _NP_GENERATOR_CTORS:
            if not call.args and not call.keywords:
                return (
                    f"entropy-free numpy.random.{tail}() "
                    "(seeded from the OS, different every run)"
                )
            if not is_randomness_home(module.path):
                return f"numpy.random.{tail}() outside sim/randomness.py"
    return ""


@register_rule
class RngProvenanceRule(ProjectRule):
    """RNGs must provably originate from ``sim.randomness``, even
    through assignments, helper returns, and keyword forwarding."""

    id = "SIM011"
    summary = "RNG state whose provenance is not sim.randomness (cross-module)"
    fixit = (
        "derive the generator with repro.sim.randomness.seeded_rng(seed, ...) "
        "or a RandomStreams stream and pass it down explicitly; a helper "
        "must forward a seeded generator, not mint its own"
    )

    def check_module(
        self, project: ProjectContext, module: ModuleContext
    ) -> Iterator[Finding]:
        summary = project.taint_summary("rng", _rng_seed)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve(node.func)
            direct = _rng_seed(module, node, resolved)
            if direct and "entropy-free" in direct:
                # Seeded constructions are SIM001's per-file finding;
                # the entropy-free flavor is invisible to SIM001 inside
                # the randomness home, so this rule owns it everywhere.
                yield from module.finding(node, self, direct)
                continue
            target = project.resolve_function(module, node)
            if target is None:
                continue
            reason = summary.reason(target.full_name)
            if reason:
                yield from module.finding(
                    node,
                    self,
                    f"RNG obtained from {target.full_name}(), which returns "
                    f"{reason}",
                )


# ---------------------------------------------------------------------------
# SIM012 — wall-clock values must not become simulated event times
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_SCHEDULE_METHODS = frozenset(
    {"schedule", "schedule_at", "schedule_reserved", "schedule_transient"}
)


def _wall_seed(module: ModuleContext, call: ast.Call, resolved: str) -> str:
    if resolved in _WALL_CLOCK_CALLS:
        return f"a wall-clock read ({resolved}())"
    return ""


@register_rule
class WallClockTaintRule(ProjectRule):
    """Wall-clock-derived values must not flow into event times."""

    id = "SIM012"
    summary = "wall-clock-derived value scheduled as a simulation event time"
    fixit = (
        "simulated times are functions of sim.now and model parameters "
        "only; host timing (perf_counter) is for display and BENCH "
        "artifacts, never for schedule()/schedule_at() arguments"
    )

    def check_module(
        self, project: ProjectContext, module: ModuleContext
    ) -> Iterator[Finding]:
        summary = project.taint_summary("wallclock", _wall_seed)
        call_reason = project.call_reason_with(_wall_seed, summary)
        for scope in _scopes(module):
            tainted = local_tainted_names(module, scope, call_reason)
            for node in _scope_walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                chain = dotted_name(node.func)
                if chain.rsplit(".", 1)[-1] not in _SCHEDULE_METHODS:
                    continue
                if not node.args:
                    continue
                reason = expr_taint_reason(
                    node.args[0], module, tainted, call_reason
                )
                if reason:
                    yield from module.finding(
                        node,
                        self,
                        f"event time passed to {chain}() derives from "
                        f"{reason}",
                    )


_Scope = ast.FunctionDef | ast.AsyncFunctionDef | ast.Module


def _scopes(module: ModuleContext) -> Iterator[_Scope]:
    """The module body, then every function body, each its own scope."""
    yield module.tree
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scope_walk(scope: _Scope) -> Iterator[ast.AST]:
    """``ast.walk`` over a scope, not descending into nested functions
    (they are analyzed as their own scopes)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# SIM014 — unit-dimension checking on suffix-annotated identifiers
# ---------------------------------------------------------------------------

#: identifier suffix -> canonical unit.  Identifiers carry their unit as
#: a trailing ``_<unit>`` component (the tree-wide convention:
#: ``delay_s``, ``buffer_pkts``, ``bandwidth_bps``).
_UNIT_SUFFIXES = {
    "s": "s",
    "sec": "s",
    "secs": "s",
    "seconds": "s",
    "ms": "ms",
    "us": "us",
    "ns": "ns",
    "byte": "bytes",
    "bytes": "bytes",
    "kb": "kb",
    "kib": "kb",
    "mb": "mb",
    "mib": "mb",
    "pkt": "pkts",
    "pkts": "pkts",
    "packet": "pkts",
    "packets": "pkts",
    "segments": "pkts",
    "bps": "bps",
    "kbps": "kbps",
    "mbps": "mbps",
    "gbps": "gbps",
    "pps": "pps",
    "hz": "hz",
}


def _unit_of(node: ast.expr) -> Optional[str]:
    """Canonical unit carried by an identifier, or None."""
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    else:
        return None
    if "_" not in ident:
        return None
    return _UNIT_SUFFIXES.get(ident.rsplit("_", 1)[1].lower())


def _unit_of_param(name: str) -> Optional[str]:
    if "_" not in name:
        return None
    return _UNIT_SUFFIXES.get(name.rsplit("_", 1)[1].lower())


@register_rule
class UnitDimensionRule(ProjectRule):
    """No arithmetic/comparison/keyword-passing across unit suffixes."""

    id = "SIM014"
    summary = "arithmetic or comparison mixes unit-suffixed quantities"
    fixit = (
        "convert explicitly before combining (seconds*bandwidth_bps/8 -> "
        "bytes; bytes*8/bandwidth_bps -> seconds) and name the result "
        "with its own unit suffix"
    )

    def check_module(
        self, project: ProjectContext, module: ModuleContext
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                left, right = _unit_of(node.left), _unit_of(node.right)
                if left and right and left != right:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    yield from module.finding(
                        node,
                        self,
                        f"'{op}' combines {left!r} with {right!r} "
                        "(unit mismatch)",
                    )
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for left_n, right_n in zip(operands, operands[1:]):
                    left, right = _unit_of(left_n), _unit_of(right_n)
                    if left and right and left != right:
                        yield from module.finding(
                            node,
                            self,
                            f"comparison of {left!r} against {right!r} "
                            "(unit mismatch)",
                        )
                        break
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg is None:
                        continue
                    expected = _unit_of_param(kw.arg)
                    actual = _unit_of(kw.value)
                    if expected and actual and expected != actual:
                        yield from module.finding(
                            kw.value,
                            self,
                            f"keyword {kw.arg}= receives a {actual!r} "
                            f"value, parameter expects {expected!r}",
                        )


# ---------------------------------------------------------------------------
# SIM015 — experiment contract conformance
# ---------------------------------------------------------------------------

_EXPERIMENT_BASES = ("repro.experiments.base.Experiment",)
_REGISTER_NAMES = ("repro.experiments.registry.register",)
#: class attributes a registered experiment must declare in its body.
_REQUIRED_DECLARATIONS = ("id", "title", "params_cls")



@register_rule
class ExperimentConformanceRule(ProjectRule):
    """Registered experiments declare their contract; ``run_point``
    talks to the world only through the obs bus and its return value."""

    id = "SIM015"
    summary = "experiment contract violation (registration, telemetry)"
    fixit = (
        "declare id/title/params_cls in the class body; emit telemetry "
        "from run_point via the repro.obs bus or the returned payload "
        "(report() is the printing layer)"
    )

    def check_module(
        self, project: ProjectContext, module: ModuleContext
    ) -> Iterator[Finding]:
        yield from self._check_registered_classes(project, module)

    # -- registration contract -----------------------------------------
    def _registered_class_names(self, module: ModuleContext) -> set[str]:
        """Class names this module registers as experiments."""
        registered: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    if module.resolve(target) in _REGISTER_NAMES:
                        registered.add(node.name)
            elif isinstance(node, ast.Call):
                if module.resolve(node.func) in _REGISTER_NAMES and node.args:
                    chain = dotted_name(node.args[0])
                    if chain:
                        registered.add(chain)
        return registered

    def _check_registered_classes(
        self, project: ProjectContext, module: ModuleContext
    ) -> Iterator[Finding]:
        experiment_classes: set[str] = set()
        for base in _EXPERIMENT_BASES:
            experiment_classes |= project.subclasses_of(base)
        registered = self._registered_class_names(module)
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in registered:
                continue
            full = f"{module.module_name}.{node.name}"
            if full not in experiment_classes:
                continue
            declared = set()
            for item in node.body:
                if isinstance(item, ast.Assign):
                    declared.update(
                        t.id for t in item.targets if isinstance(t, ast.Name)
                    )
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    declared.add(item.target.id)
            missing = [
                name for name in _REQUIRED_DECLARATIONS if name not in declared
            ]
            if missing:
                yield from module.finding(
                    node,
                    self,
                    f"registered experiment {node.name} does not declare "
                    f"{', '.join(missing)} in its class body "
                    "(params_cls = None must be explicit)",
                )
            yield from self._check_run_point_telemetry(module, node)

    def _check_run_point_telemetry(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name != "run_point":
                continue
            for node in _scope_walk(item):
                if not isinstance(node, ast.Call):
                    continue
                chain = dotted_name(node.func)
                if chain == "print":
                    yield from module.finding(
                        node,
                        self,
                        f"{cls.name}.run_point() prints directly; points "
                        "run in worker processes — telemetry goes through "
                        "the repro.obs bus, presentation through report()",
                    )
                elif chain == "open" and _opens_for_write(node):
                    yield from module.finding(
                        node,
                        self,
                        f"{cls.name}.run_point() writes a file directly; "
                        "export results via the returned payload or the "
                        "repro.obs exporters",
                    )


def _opens_for_write(call: ast.Call) -> bool:
    mode = ""
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        mode = str(call.args[1].value)
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = str(kw.value.value)
    return any(ch in mode for ch in "wax+")
