"""The simlint rule set.

Each rule protects an invariant the reproduction's credibility rests
on — deterministic replay, state isolation between sweep points, or a
sanctioned seam (faults, sweep backends).  See
CONTRIBUTING.md for the one-line "what it protects" table and how to
add a rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (
    Finding,
    ModuleContext,
    Rule,
    dotted_name,
    register_rule,
)

__all__ = [
    "FaultBypassRule",
    "ModuleMutableStateRule",
    "RawExecutorRule",
    "RawSocketRule",
    "TimeEqualityRule",
    "UnjustifiedSuppressionRule",
    "UnseededRandomnessRule",
    "WallClockRule",
    "is_randomness_home",
]

#: the one module allowed to construct generators and read entropy —
#: everything else must draw from repro.sim.randomness streams/helpers.
RANDOMNESS_HOME = "sim/randomness.py"

#: the generator class that only the randomness home may construct.
GENERATOR_CLASS = "repro.sim.randomness.Pcg64Generator"


def is_randomness_home(path: str) -> bool:
    return path.endswith(RANDOMNESS_HOME)


def _under(path: str, dirs: tuple[str, ...]) -> bool:
    """True when ``path`` lies inside one of the ``/pkg/`` directories."""
    return any(part in f"/{path}" for part in dirs)


@register_rule
class UnseededRandomnessRule(Rule):
    """All randomness must flow through ``repro.sim.randomness``."""

    id = "SIM001"
    summary = "randomness outside sim/randomness.py breaks deterministic replay"
    fixit = (
        "draw from a RandomStreams stream or seeded_rng()/derive_seed() "
        "in repro.sim.randomness instead of constructing generators here"
    )

    #: numpy.random entry points that mint or reseed generator state
    #: (the tree itself no longer imports numpy; other code may).
    FORBIDDEN_NP_CALLS = frozenset(
        {
            "default_rng",
            "seed",
            "RandomState",
            "Generator",
            "PCG64",
            "PCG64DXSM",
            "MT19937",
            "Philox",
            "SFC64",
            # module-level convenience draws (global hidden state):
            "random",
            "rand",
            "randn",
            "randint",
            "choice",
            "shuffle",
            "permutation",
            "uniform",
            "normal",
            "exponential",
            "poisson",
            "binomial",
        }
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if is_randomness_home(module.path):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name == "random" or name.name.startswith("random."):
                        yield from module.finding(
                            node,
                            self,
                            "import of the stdlib 'random' module "
                            "(process-global, seed-order-dependent state)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield from module.finding(
                        node,
                        self,
                        "import from the stdlib 'random' module "
                        "(process-global, seed-order-dependent state)",
                    )
            elif isinstance(node, ast.Call):
                name = module.resolve(node.func)
                if name == GENERATOR_CLASS:
                    yield from module.finding(
                        node,
                        self,
                        "Pcg64Generator() constructs generator state "
                        "outside sim/randomness.py",
                    )
                elif name.startswith("numpy.random."):
                    tail = name.rsplit(".", 1)[1]
                    if tail in self.FORBIDDEN_NP_CALLS:
                        yield from module.finding(
                            node,
                            self,
                            f"call to {name}() constructs generator state "
                            "outside sim/randomness.py",
                        )


@register_rule
class WallClockRule(Rule):
    """Simulation code must never read the wall clock."""

    id = "SIM002"
    summary = "wall-clock reads make runs irreproducible"
    fixit = (
        "use the simulator clock (sim.now); for host-side elapsed-time "
        "display use time.perf_counter(), which this rule permits"
    )

    FORBIDDEN = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.localtime",
            "time.gmtime",
            "time.ctime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if is_randomness_home(module.path):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = module.resolve(node.func)
                if name in self.FORBIDDEN:
                    yield from module.finding(
                        node, self, f"wall-clock read via {name}()"
                    )


@register_rule
class TimeEqualityRule(Rule):
    """No exact float equality on simulation timestamps."""

    id = "SIM003"
    summary = "float ==/!= on simulation time is precision-fragile"
    fixit = (
        "compare with an ordering (<, <=) or an explicit tolerance "
        "(math.isclose); exact float tie-breaks need a justified "
        "'# simlint: disable=SIM003'"
    )

    TIME_NAMES = frozenset({"now", "time", "sim_time", "timestamp"})

    @classmethod
    def _is_time_like(cls, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            ident = node.attr
        elif isinstance(node, ast.Name):
            ident = node.id
        else:
            return False
        return ident in cls.TIME_NAMES or ident.endswith("_time")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                # `x.time == None`-style identity checks are not float
                # comparisons; only flag when neither side is a constant
                # None and at least one side is time-like.
                if any(
                    isinstance(side, ast.Constant) and side.value is None
                    for side in (left, right)
                ):
                    continue
                if self._is_time_like(left) or self._is_time_like(right):
                    yield from module.finding(
                        node,
                        self,
                        "exact float comparison on a simulation-time value",
                    )
                    break


@register_rule
class ModuleMutableStateRule(Rule):
    """No module-level mutable containers in tcp/ and net/.

    Protocol and network modules are imported once per worker process;
    module-level mutable state leaks between sweep points executed in
    the same worker, silently coupling "independent" simulations.
    """

    id = "SIM005"
    summary = "module-level mutable state in tcp//net/ couples sweep points"
    fixit = (
        "move the state onto an instance created per simulation, or make "
        "it an immutable tuple/frozenset/Mapping; a deliberate registry "
        "needs a justified '# simlint: disable=SIM005'"
    )

    SCOPED_DIRS = ("/tcp/", "/net/")
    MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict", "deque", "OrderedDict", "Counter"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name.rsplit(".", 1)[-1] in self.MUTABLE_CALLS
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not _under(module.path, self.SCOPED_DIRS):
            return
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue  # __all__ and friends: convention, not state
                if self._is_mutable(value):
                    yield from module.finding(
                        node,
                        self,
                        f"module-level mutable container {name!r} in a "
                        "protocol/network module",
                    )


@register_rule
class FaultBypassRule(Rule):
    """Failures must be modelled through the faults API, not ad hoc.

    Calling another object's ``_deliver`` (forging or suppressing a
    link delivery) or writing a queue's ``capacity_pkts`` from outside
    the network layer bypasses the fault subsystem: the impairment is
    unseeded (not reproducible across workers), unscheduled (invisible
    to the invariant monitor's fault audit trail), and uncounted (the
    injected-versus-congestion ledger stays blind to it).  The network
    and faults layers themselves are exempt — they *are* the sanctioned
    implementation.
    """

    id = "SIM008"
    summary = "direct link/queue tampering bypasses the seeded fault subsystem"
    fixit = (
        "express the impairment as a repro.faults.FaultPlan event "
        "(LossBurst/Corrupt/DelayJitter/LinkDown/BufferResize) armed by "
        "a FaultInjector; for a sanctioned capacity change call "
        "queue.resize(), which accounts evictions"
    )

    #: layers allowed to touch the delivery path and queue capacity:
    #: the implementation itself.
    EXEMPT_DIRS = ("/net/", "/faults/")

    @staticmethod
    def _non_self_attr(node: ast.expr, attr: str) -> bool:
        """True for ``X.<attr>`` where X is not ``self``/``cls``."""
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and not (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            )
        )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if _under(module.path, self.EXEMPT_DIRS):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and self._non_self_attr(
                node.func, "_deliver"
            ):
                yield from module.finding(
                    node,
                    self,
                    "direct call to a link's _deliver() forges/drops a "
                    "delivery outside the faults API",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if self._non_self_attr(target, "capacity_pkts"):
                        yield from module.finding(
                            node,
                            self,
                            "direct write to a queue's capacity_pkts "
                            "mutates buffering outside the faults API",
                        )


@register_rule
class RawExecutorRule(Rule):
    """Sweep fan-out goes through a SweepBackend, not a raw pool.

    Constructing a :class:`concurrent.futures.ProcessPoolExecutor`
    directly sidesteps the runner's execution seam: the pool's results
    skip the engine's retry/timeout loop and are invisible to the
    journal's backend header.  The backends package —
    which *is* the sanctioned wrapper — is exempt.
    """

    id = "SIM010"
    summary = "raw ProcessPoolExecutor bypasses the SweepBackend seam"
    fixit = (
        "use a repro.runner.backends backend (SerialBackend, "
        "ProcessPoolBackend) or create_backend(); for a custom "
        "executor, subclass ProcessPoolBackend and override _make_pool"
    )

    #: the sanctioned implementation of the seam.
    EXEMPT_DIRS = ("/runner/backends/",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if _under(module.path, self.EXEMPT_DIRS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name.rsplit(".", 1)[-1] == "ProcessPoolExecutor":
                yield from module.finding(
                    node,
                    self,
                    "direct ProcessPoolExecutor construction outside "
                    "runner/backends/ bypasses the sweep-backend seam",
                )


@register_rule
class UnjustifiedSuppressionRule(Rule):
    """Every ``# simlint: disable=`` directive must carry a reason.

    A suppression is a standing exception to an invariant the figures
    rest on; the justification (extra comment text on the directive's
    line, or a comment line directly above it) is what lets a reviewer
    audit that exception without re-deriving it.  Directives inside
    string literals and docstrings are ignored (they are prose, not
    suppressions).
    """

    id = "SIM016"
    summary = "simlint suppression without a justification comment"
    fixit = (
        "say why on the directive line ('# exact tie-break; see "
        "Simulator.key_passed  # simlint: disable=SIM003') or in a "
        "comment directly above it"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for directive in module.directives:
            if directive.justified:
                continue
            ids = ",".join(sorted(directive.ids))
            # Deliberately bypasses module.finding(): an unjustified
            # 'disable=all' must not suppress the rule that polices it.
            yield Finding(
                module.path,
                directive.line,
                0,
                self.id,
                f"suppression of {ids} has no justification comment",
                self.fixit,
            )


@register_rule
class RawSocketRule(Rule):
    """The simulator and the sweep runner do no network I/O.

    A sweep's points reach their workers through the process pool's
    pipes, and a simulated network is made of ``Link`` objects, not
    sockets.  A socket opened anywhere under ``src/repro`` is therefore
    a new, unreviewed transport: its traffic bypasses the runner's
    retry loop and the checkpoint journal, and it makes a run depend
    on the host's network.  No directory is exempt.
    """

    id = "SIM017"
    summary = "raw socket construction: the simulator and runner do no network I/O"
    fixit = (
        "send sweep work through a repro.runner.backends SweepBackend "
        "(pool pipes, no sockets) and model the network with net.Link; "
        "a new transport needs a new backend and a review of this rule"
    )

    #: socket-module entry points that mint a connection or listener.
    FORBIDDEN_CALLS = frozenset(
        {
            "socket.socket",
            "socket.create_connection",
            "socket.create_server",
            "socket.socketpair",
        }
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name in self.FORBIDDEN_CALLS:
                yield from module.finding(
                    node,
                    self,
                    f"direct {name}(): the simulator and runner do no "
                    "network I/O",
                )
