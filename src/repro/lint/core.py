"""simlint framework: findings, the rule registry, and the file walker.

A *rule* is a class with an ``id`` (``SIM001``...), a one-line
``summary`` of the invariant it protects, a ``fixit`` hint shown with
every finding, and a :meth:`Rule.check` generator that yields
:class:`Finding` records for one parsed module.  Rules register
themselves with the :func:`register_rule` decorator; the CLI and the
test suite discover them through :func:`all_rules`.

Per-file rules subclass :class:`Rule`; rules that need to see the whole
program (symbol tables, cross-module taint) subclass
:class:`ProjectRule` and receive a
:class:`~repro.lint.project.ProjectContext` alongside the module under
analysis.  Either way a rule reports findings *per module*.

Suppression is per line: a trailing ``# simlint: disable=SIM003``
comment silences the named rule(s) on that physical line (comma-
separate several ids, or use ``disable=all``).  Suppressions must be
justified — extra comment text on the directive line or a comment line
directly above — or SIM016 flags the directive itself.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.project import ProjectContext

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "SuppressionDirective",
    "all_rules",
    "dotted_name",
    "lint_paths",
    "lint_source",
    "register_rule",
]

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    fixit: str = field(compare=False, default="")

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.fixit:
            text += f"\n    fix: {self.fixit}"
        return text

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping (the ``--format json`` schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "message": self.message,
            "fixit": self.fixit,
        }


@dataclass(frozen=True)
class SuppressionDirective:
    """One ``# simlint: disable=...`` comment found in a module."""

    line: int
    ids: frozenset[str]
    #: True when the directive carries a justification: extra comment
    #: text on its own line, or a comment line directly above it.
    justified: bool


class ModuleContext:
    """A parsed module plus everything rules need to inspect it."""

    def __init__(self, path: str, source: str, module_name: str = "") -> None:
        #: posix-normalized path; rules match roles on it ("/tcp/"...)
        self.path = PurePosixPath(path).as_posix()
        #: dotted module name when known ("repro.tcp.base"); the
        #: project builder fills it in, standalone lint leaves it "".
        self.module_name = module_name
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        #: real (tokenizer-verified) suppression directives, in line order.
        self.directives: list[SuppressionDirective] = []
        self._suppressed = self._parse_suppressions()
        #: local name -> fully dotted module/object it was imported as,
        #: e.g. ``np`` -> ``numpy``, ``datetime`` -> ``datetime.datetime``
        #: for ``from datetime import datetime``.
        self.import_aliases = self._collect_import_aliases()

    # ------------------------------------------------------------------
    def _comment_tokens(self) -> list[tuple[int, int, str]]:
        """(line, col, text) for every comment token in the module.

        Tokenizing (rather than regex over raw lines) keeps directives
        inside string literals and docstrings from acting as — or being
        policed as — real suppressions.
        """
        comments: list[tuple[int, int, str]] = []
        try:
            for tok in tokenize.generate_tokens(io.StringIO(self.source).readline):
                if tok.type == tokenize.COMMENT:
                    comments.append((tok.start[0], tok.start[1], tok.string))
        except tokenize.TokenError:  # pragma: no cover - unfinishable input
            pass
        return comments

    def _parse_suppressions(self) -> dict[int, frozenset[str]]:
        comment_lines: dict[int, tuple[int, str]] = {}
        for lineno, col, text in self._comment_tokens():
            comment_lines[lineno] = (col, text)

        table: dict[int, frozenset[str]] = {}
        for lineno, (col, text) in sorted(comment_lines.items()):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            ids = frozenset(
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            )
            own_line = self.lines[lineno - 1].lstrip().startswith("#")
            # Justification: comment text beyond the directive itself on
            # the directive's line, or a (non-directive) comment line
            # directly above.
            extra = (text[: match.start()] + text[match.end():]).strip("# \t")
            above = comment_lines.get(lineno - 1)
            justified = bool(extra) or (
                above is not None and not _SUPPRESS_RE.search(above[1])
            )
            self.directives.append(SuppressionDirective(lineno, ids, justified))
            table[lineno] = table.get(lineno, frozenset()) | ids
            # A comment-only suppression line covers the statement that
            # starts on the next line (the justified-comment idiom).
            if own_line:
                table[lineno + 1] = table.get(lineno + 1, frozenset()) | ids
        return table

    def _collect_import_aliases(self) -> dict[str, str]:
        aliases: dict[str, str] = {}
        package = self.module_name.rpartition(".")[0] if self.module_name else ""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    local = name.asname or name.name.split(".")[0]
                    target = name.name if name.asname else name.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level > 0:
                    # Resolve `from .sibling import x` against our package.
                    parts = self.module_name.split(".") if self.module_name else []
                    if len(parts) < node.level:
                        continue
                    anchor = ".".join(parts[: len(parts) - node.level]) or package
                    base = f"{anchor}.{node.module}" if node.module else anchor
                if not base:
                    continue
                for name in node.names:
                    if name.name == "*":
                        continue
                    local = name.asname or name.name
                    aliases[local] = f"{base}.{name.name}"
        return aliases

    # ------------------------------------------------------------------
    def suppressed(self, lineno: int, rule_id: str) -> bool:
        ids = self._suppressed.get(lineno)
        if ids is None:
            return False
        return rule_id.upper() in ids or "ALL" in ids

    def resolve(self, node: ast.expr) -> str:
        """The fully dotted name behind an expression, import-resolved.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when the module did ``import numpy
        as np``; unresolvable expressions give ``""``.
        """
        chain = dotted_name(node)
        if not chain:
            return ""
        return self.resolve_dotted(chain)

    def resolve_dotted(self, chain: str) -> str:
        """Import-resolve an already-extracted dotted name string."""
        if not chain:
            return ""
        root, _, rest = chain.partition(".")
        resolved_root = self.import_aliases.get(root, root)
        return f"{resolved_root}.{rest}" if rest else resolved_root

    def finding(
        self, node: ast.AST, rule: "Rule", message: str
    ) -> Iterator[Finding]:
        """Yield a finding for ``node`` unless its line suppresses it."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if not self.suppressed(lineno, rule.id):
            yield Finding(self.path, lineno, col, rule.id, message, rule.fixit)


def dotted_name(node: ast.expr) -> str:
    """``a.b.c`` for a Name/Attribute chain; ``""`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class Rule:
    """Base class for per-file simlint rules."""

    id: str = ""
    summary: str = ""
    fixit: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Rule {self.id}: {self.summary}>"


class ProjectRule(Rule):
    """A rule that needs whole-program context.

    Subclasses implement :meth:`check_module`; the engine calls it once
    per module with the shared :class:`ProjectContext`, so findings stay
    attributable to a single module.
    """

    def check_module(
        self, project: "ProjectContext", module: ModuleContext
    ) -> Iterator[Finding]:
        raise NotImplementedError


_RULES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``cls`` to the global rule registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    _RULES[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id.

    The rule modules register on import, and ``repro.lint/__init__``
    imports them before any caller can reach this function.
    """
    return [_RULES[rule_id]() for rule_id in sorted(_RULES)]


def lint_module_in_project(
    project: "ProjectContext",
    module: ModuleContext,
    select: Sequence[str] | None,
) -> list[Finding]:
    """Run every rule against one module of a parsed project."""
    findings: list[Finding] = []
    for rule in all_rules():
        if select is not None and rule.id not in select:
            continue
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_module(project, module))
        else:
            findings.extend(rule.check(module))
    return sorted(findings)


def lint_source(
    source: str, path: str = "<string>", select: Sequence[str] | None = None
) -> list[Finding]:
    """Lint one module given as a string; the unit the tests drive.

    Cross-module rules see a single-module project, so their purely
    local checks still apply (and their fixtures stay one-file).
    """
    from repro.lint.project import ProjectContext

    module = ModuleContext(path, source)
    project = ProjectContext.for_single_module(module)
    return lint_module_in_project(project, module, select)


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            yield path


def lint_paths(
    paths: Iterable[str], select: Sequence[str] | None = None
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` as one program.

    All files are parsed into a single :class:`ProjectContext` first, so
    cross-module rules can follow imports between them.
    """
    from repro.lint.project import ProjectContext

    project = ProjectContext.from_files(iter_python_files(paths))
    findings: list[Finding] = []
    for info in project.modules_in_path_order():
        findings.extend(lint_module_in_project(project, info.context, select))
    return sorted(findings)
