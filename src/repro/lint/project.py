"""Whole-program context for cross-module simlint rules.

A :class:`ProjectContext` parses every module of the tree under
analysis exactly once and derives two things the SIM011+ rule family
needs:

* **per-module symbol tables**: top-level functions, classes, and
  class methods by qualified name, so a dotted call site in one module
  can be resolved to the function definition in another;
* **taint summaries** computed to a fixpoint over the call graph —
  "does this function return an unseeded RNG / a wall-clock-derived
  value / an unpicklable object?" — so rules can follow a value through
  helper returns and keyword forwarding instead of only flagging
  constructor call sites.

The context is deliberately syntactic: it never imports analyzed code.
Resolution is conservative — when a receiver or callee cannot be
resolved, no taint is assumed (rules only report *provable* violations,
the property that keeps the shipped tree lintable without noise).
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePosixPath
from typing import Callable, Iterable, Iterator, Optional

from repro.lint.core import ModuleContext, dotted_name

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectContext", "TaintSummary"]


class FunctionInfo:
    """One function or method definition inside a project module."""

    __slots__ = ("module", "qualname", "node", "is_method")

    def __init__(
        self,
        module: "ModuleInfo",
        qualname: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        is_method: bool,
    ) -> None:
        self.module = module
        self.qualname = qualname  # e.g. "helpers.fresh_rng" / "Cls.method"
        self.node = node
        self.is_method = is_method

    @property
    def full_name(self) -> str:
        """Project-unique name: ``<module>.<qualname>``."""
        return f"{self.module.name}.{self.qualname}"


class ModuleInfo:
    """A parsed project module plus its symbol table."""

    __slots__ = ("name", "path", "context", "functions", "classes")

    def __init__(self, name: str, context: ModuleContext) -> None:
        self.name = name
        self.path = context.path
        self.context = context
        #: qualname -> FunctionInfo for top-level functions and methods.
        self.functions: dict[str, FunctionInfo] = {}
        #: class name -> ClassDef for top-level classes.
        self.classes: dict[str, ast.ClassDef] = {}
        self._index_symbols()

    def _index_symbols(self) -> None:
        for node in self.context.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = FunctionInfo(
                    self, node.name, node, is_method=False
                )
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{node.name}.{item.name}"
                        self.functions[qual] = FunctionInfo(
                            self, qual, item, is_method=True
                        )


class TaintSummary:
    """Fixpoint result of one taint family over the whole project.

    ``tainted_functions`` maps the full name of every function that
    *returns* a tainted value to a short human reason (used in finding
    messages: "via helpers.fresh_rng() [unseeded random.Random()]").
    """

    def __init__(self) -> None:
        self.tainted_functions: dict[str, str] = {}

    def reason(self, full_name: str) -> str:
        return self.tainted_functions.get(full_name, "")


def _module_name_for(path: Path) -> str:
    """Infer the dotted module name of ``path`` from package layout.

    Walks up while ``__init__.py`` exists, so ``src/repro/tcp/base.py``
    maps to ``repro.tcp.base`` regardless of the current directory.
    Files outside any package are their bare stem.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:  # a bare __init__.py outside any package
        parts = [path.stem]
    return ".".join(parts)


class ProjectContext:
    """Every module of the tree under analysis, parsed once."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self._summaries: dict[str, TaintSummary] = {}
        self._subclass_cache: dict[str, set[str]] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_files(cls, files: Iterable[Path]) -> "ProjectContext":
        modules: dict[str, ModuleInfo] = {}
        for file in files:
            path = Path(file)
            try:
                source = path.read_text(encoding="utf-8")
            except OSError:
                continue
            name = _module_name_for(path)
            context = ModuleContext(str(path), source, module_name=name)
            modules[name] = ModuleInfo(name, context)
        return cls(modules)

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "ProjectContext":
        """Build from in-memory ``{dotted_name: source}`` (tests)."""
        modules: dict[str, ModuleInfo] = {}
        for name, source in sources.items():
            path = name.replace(".", "/") + ".py"
            context = ModuleContext(path, source, module_name=name)
            modules[name] = ModuleInfo(name, context)
        return cls(modules)

    @classmethod
    def for_single_module(cls, module: ModuleContext) -> "ProjectContext":
        """A one-module project (standalone ``lint_source`` calls)."""
        name = module.module_name or _guess_name_from_path(module.path)
        module.module_name = name
        return cls({name: ModuleInfo(name, module)})

    def modules_in_path_order(self) -> list[ModuleInfo]:
        return sorted(self.modules.values(), key=lambda info: info.path)

    # -- symbol resolution ----------------------------------------------
    def resolve_function(
        self, module: ModuleContext, call: ast.Call
    ) -> Optional[FunctionInfo]:
        """The project function a call site invokes, if resolvable.

        Handles plain names (``fresh_rng()``), imported names
        (``helpers.fresh_rng()`` / ``from helpers import fresh_rng``),
        and same-module ``self.method()`` calls.
        """
        chain = dotted_name(call.func)
        if not chain:
            return None
        info = self.modules.get(module.module_name)
        # self.method() -> a method on a class in this module.  We do not
        # track the receiver's class, so only match when exactly one
        # class in the module defines the method (conservative).
        if chain.startswith("self.") and info is not None:
            method = chain.split(".", 1)[1]
            if "." not in method:
                hits = [
                    fn
                    for qual, fn in info.functions.items()
                    if fn.is_method and qual.endswith(f".{method}")
                ]
                if len(hits) == 1:
                    return hits[0]
            return None
        resolved = module.resolve_dotted(chain)
        return self.lookup(resolved) or (
            self.lookup(f"{module.module_name}.{chain}") if info else None
        )

    def lookup(self, full_name: str) -> Optional[FunctionInfo]:
        """FunctionInfo for ``module.qualname`` if it names one."""
        if not full_name:
            return None
        parts = full_name.split(".")
        for end in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:end])
            info = self.modules.get(mod_name)
            if info is None:
                continue
            qual = ".".join(parts[end:])
            return info.functions.get(qual)
        return None

    # -- class hierarchy -------------------------------------------------
    def subclasses_of(self, base_full_name: str) -> set[str]:
        """Full names of project classes transitively deriving from
        ``base_full_name`` (e.g. ``repro.experiments.base.Experiment``).

        The external base itself (outside the project) participates by
        name, so a project that merely *imports* Experiment still
        resolves its subclasses.
        """
        cached = self._subclass_cache.get(base_full_name)
        if cached is not None:
            return cached
        known = {base_full_name}
        changed = True
        while changed:
            changed = False
            for info in self.modules.values():
                for cls_name, node in info.classes.items():
                    full = f"{info.name}.{cls_name}"
                    if full in known:
                        continue
                    for base in node.bases:
                        resolved = info.context.resolve(base)
                        if not resolved:
                            continue
                        if resolved in known or f"{info.name}.{resolved}" in known:
                            known.add(full)
                            changed = True
                            break
        known.discard(base_full_name)
        self._subclass_cache[base_full_name] = known
        return known

    # -- taint summaries --------------------------------------------------
    def taint_summary(
        self,
        key: str,
        seed: Callable[[ModuleContext, ast.Call, str], str],
        expr_seed: Optional[Callable[[ast.expr], str]] = None,
        local_defs_reason: str = "",
    ) -> TaintSummary:
        """Fixpoint "returns-tainted" summary for one taint family.

        ``seed(module, call, resolved_name)`` returns a non-empty reason
        string when the call expression itself *originates* taint (e.g.
        "unseeded random.Random()"); the fixpoint then propagates taint
        through local assignments, returns, and project-internal calls.
        ``expr_seed`` lets a family taint non-call expressions (SIM013's
        lambdas); ``local_defs_reason`` taints references to functions
        defined inside the analyzed function (closures).  Summaries are
        memoized per project under ``key``.
        """
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        summary = TaintSummary()
        call_reason = self.call_reason_with(seed, summary)

        changed = True
        while changed:
            changed = False
            for info in self.modules.values():
                for fn in info.functions.values():
                    if fn.full_name in summary.tainted_functions:
                        continue
                    reason = _returns_tainted(
                        info.context,
                        fn.node,
                        call_reason,
                        expr_seed=expr_seed,
                        local_defs_reason=local_defs_reason,
                    )
                    if reason:
                        summary.tainted_functions[fn.full_name] = reason
                        changed = True
        self._summaries[key] = summary
        return summary

    def call_reason_with(
        self,
        seed: Callable[[ModuleContext, ast.Call, str], str],
        summary: TaintSummary,
    ) -> Callable[[ModuleContext, ast.Call], str]:
        """A call-site taint oracle: the family's own seeds plus the
        project summary (so calls through helpers report their origin).
        """

        def call_reason(module: ModuleContext, call: ast.Call) -> str:
            resolved = module.resolve(call.func)
            reason = seed(module, call, resolved)
            if reason:
                return reason
            target = self.resolve_function(module, call)
            if target is not None:
                inner = summary.reason(target.full_name)
                if inner:
                    return f"via {target.full_name}() [{inner}]"
            return ""

        return call_reason


def _guess_name_from_path(path: str) -> str:
    pure = PurePosixPath(path)
    parts = [p for p in pure.with_suffix("").parts if p not in ("src", "/")]
    # Keep at most the trailing package-ish segments; a bare fixture
    # path like "repro/tcp/state.py" becomes "repro.tcp.state".
    return ".".join(parts) if parts else "<module>"


# ---------------------------------------------------------------------------
# Local (intra-function) taint propagation shared by the summary fixpoint
# and the rules' sink checks.
# ---------------------------------------------------------------------------


def local_tainted_names(
    module: ModuleContext,
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
    call_reason: Callable[[ModuleContext, ast.Call], str],
    expr_seed: Optional[Callable[[ast.expr], str]] = None,
    local_defs_reason: str = "",
) -> dict[str, str]:
    """Names bound (at any point in ``func``) to a tainted value.

    Statement-ordered single pass: assignments whose right-hand side is
    tainted (directly, through arithmetic, a conditional expression, or
    a call to a tainted function) taint their simple-name targets.
    With ``local_defs_reason``, names of functions/classes defined
    *inside a function scope* are tainted too (pickle cannot resolve
    their qualnames from a worker process).
    """
    tainted: dict[str, str] = {}
    in_function = not isinstance(func, ast.Module)

    for stmt in _statements_in_order(func.body):
        if (
            local_defs_reason
            and in_function
            and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ):
            tainted[stmt.name] = f"{local_defs_reason} {stmt.name!r}"
            continue
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.AugAssign):
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        reason = expr_taint_reason(value, module, tainted, call_reason, expr_seed)
        if not reason:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                tainted[target.id] = reason
    return tainted


def expr_taint_reason(
    node: ast.expr,
    module: ModuleContext,
    tainted: dict[str, str],
    call_reason: Callable[[ModuleContext, ast.Call], str],
    expr_seed: Optional[Callable[[ast.expr], str]] = None,
) -> str:
    """Why ``node`` evaluates to a tainted value (``""`` when it does not)."""
    if expr_seed is not None:
        seeded = expr_seed(node)
        if seeded:
            return seeded
    if isinstance(node, ast.Name):
        return tainted.get(node.id, "")
    if isinstance(node, ast.Call):
        reason = call_reason(module, node)
        if reason:
            return reason
        # keyword forwarding: f(rng=tainted) does not taint the call's
        # *result*; only the callee summary decides that.
        return ""
    if isinstance(node, ast.BinOp):
        return expr_taint_reason(
            node.left, module, tainted, call_reason, expr_seed
        ) or expr_taint_reason(node.right, module, tainted, call_reason, expr_seed)
    if isinstance(node, ast.UnaryOp):
        return expr_taint_reason(node.operand, module, tainted, call_reason, expr_seed)
    if isinstance(node, ast.IfExp):
        return expr_taint_reason(
            node.body, module, tainted, call_reason, expr_seed
        ) or expr_taint_reason(node.orelse, module, tainted, call_reason, expr_seed)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for elt in node.elts:
            reason = expr_taint_reason(elt, module, tainted, call_reason, expr_seed)
            if reason:
                return reason
        return ""
    if isinstance(node, ast.Dict):
        for value in node.values:
            if value is None:
                continue
            reason = expr_taint_reason(value, module, tainted, call_reason, expr_seed)
            if reason:
                return reason
        return ""
    if isinstance(node, ast.NamedExpr):
        return expr_taint_reason(node.value, module, tainted, call_reason, expr_seed)
    if isinstance(node, ast.Starred):
        return expr_taint_reason(node.value, module, tainted, call_reason, expr_seed)
    return ""


def _returns_tainted(
    module: ModuleContext,
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    call_reason: Callable[[ModuleContext, ast.Call], str],
    expr_seed: Optional[Callable[[ast.expr], str]] = None,
    local_defs_reason: str = "",
) -> str:
    """Reason when any ``return`` in ``func`` yields a tainted value."""
    tainted = local_tainted_names(
        module, func, call_reason, expr_seed, local_defs_reason
    )
    for stmt in _statements_in_order(func.body):
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            reason = expr_taint_reason(
                stmt.value, module, tainted, call_reason, expr_seed
            )
            if reason:
                return reason
    return ""


def _statements_in_order(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement in ``body``, recursing into compound statements
    but *not* into nested function/class definitions (their locals are
    a different scope)."""
    for stmt in body:
        yield stmt
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for field_body in (
            getattr(stmt, "body", None),
            getattr(stmt, "orelse", None),
            getattr(stmt, "finalbody", None),
        ):
            if isinstance(field_body, list):
                yield from _statements_in_order(
                    [s for s in field_body if isinstance(s, ast.stmt)]
                )
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _statements_in_order(handler.body)
