"""A process loads only what it runs.

Every check starts a fresh interpreter, so what it sees is the import
graph itself and not whatever this test session happened to import:

* ``import repro`` loads no other ``repro`` module, and every package
  resolves its public names on first access through one table;
* a serial run of a figure's first point loads neither the process
  pool nor ``multiprocessing``, nor the invariant monitor, the
  observability layer or the TCP module of a protocol it did not run
  (the process backend, ``REPRO_CHECK_INVARIANTS`` and ``REPRO_TRACE``
  still load theirs);
* ``import repro.runner`` leaves the process pool, the observability
  layer and every figure module alone;
* the registry's table answers ``ids()`` without importing an
  experiment module, and ``get(id)`` imports just that id's module;
* no run loads numpy: the generator and the reducers are pure Python,
  so the first point of every drawing figure runs without it, and no
  module under ``src/repro`` imports it;
* a spawned pool worker running an ``incast`` point loads neither numpy
  nor the observability layer.

The drift guards hold the registry's table equal to what the experiment
modules register, and every package table to the modules it names, so
an experiment or a public name missing from a table fails here.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import registry

SRC = Path(__file__).resolve().parent.parent / "src"

#: the modules the registry table names.
FIGURE_MODULES = set(registry._EXPERIMENT_MODULES.values())

#: figure modules that import another figure module for its helpers.
BUILDS_ON = {"repro.experiments.ablation": {"repro.experiments.motivation"}}

_PRINT_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


#: switches that make a run load more than it otherwise would.
_SWITCHES = ("REPRO_CHECK_INVARIANTS", "REPRO_TRACE", "REPRO_TRACE_OUT")


def _run(code: str, **env: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; its stdout lines."""
    base = {k: v for k, v in os.environ.items() if k not in _SWITCHES}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(base, PYTHONPATH=str(SRC), **env),
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _fresh(code: str, **env: str) -> object:
    """Run ``code`` in a fresh interpreter; its last stdout line, as JSON."""
    return json.loads(_run(code, **env)[-1])


def _loaded_after(code: str, **env: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    loaded = _fresh(code + _PRINT_LOADED, **env)
    assert isinstance(loaded, list)
    return set(loaded)


_NUMPY_LOADED = """
import json, sys
print(json.dumps("numpy" in sys.modules))
"""


def _loads_numpy(code: str) -> bool:
    loaded = _fresh(code + _NUMPY_LOADED)
    assert isinstance(loaded, bool)
    return loaded


def test_runner_and_worker_imports_load_no_numpy():
    assert not _loads_numpy("import repro.runner")
    # What a pool worker imports, then the lookup each point makes.
    assert not _loads_numpy(
        "import repro.runner.backends.pool\n"
        "from repro.runner.backends.base import resolve_experiment\n"
        "resolve_experiment('incast')\n"
    )


def test_a_sweep_that_draws_nothing_never_loads_numpy():
    assert not _loads_numpy(
        "from repro.experiments import registry\n"
        "from repro.experiments.store import to_jsonable\n"
        "from repro.runner import SweepRunner\n"
        "incast = registry.get('incast')\n"
        "tasks = [(incast, incast.make_params('quick', protocol=p))\n"
        "         for p in ('reno', 'trim')]\n"
        "payloads = SweepRunner().run_many(tasks, seed=1)\n"
        "assert all(to_jsonable(payload) for payload in payloads)\n"
    )


def test_the_probe_sees_numpy_once_imported():
    # Positive control: the probe would see numpy if a run loaded it.
    assert _loads_numpy("import numpy")


@pytest.mark.parametrize(
    "experiment_id", ["fig8", "fig12", "openloop", "faults", "fig1"]
)
def test_the_first_point_of_a_drawing_figure_loads_no_numpy(experiment_id):
    # Each of these draws from a seeded generator and reduces what it drew.
    assert not _loads_numpy(
        "from repro.experiments import registry\n"
        "from repro.experiments.store import to_jsonable\n"
        f"experiment = registry.get({experiment_id!r})\n"
        "params = experiment.make_params('quick')\n"
        "point = experiment.points(params)[0]\n"
        "assert to_jsonable(experiment.run_point(params, point, 1))\n"
    )


def test_no_module_under_src_imports_numpy():
    importers = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert importers == []


def test_import_repro_loads_no_other_repro_module():
    assert _loaded_after("import repro") == {"repro"}


def test_import_runner_loads_no_pool_obs_or_figure_module():
    loaded = _loaded_after("import repro.runner")
    assert "repro.runner.backends.pool" not in loaded
    assert not [m for m in loaded if m.startswith("repro.obs")]
    assert not loaded & FIGURE_MODULES


def test_module_attribute_ids_load_no_figure_module():
    # A ``module:attr`` id misses the table, so resolving it (as a pool
    # worker does for a synthetic experiment) must not fall back to
    # importing every figure module.
    loaded = _loaded_after(
        "TOY = object()\n"
        "from repro.runner.backends.base import resolve_experiment\n"
        "assert resolve_experiment('__main__:TOY') is TOY\n"
    )
    assert not loaded & FIGURE_MODULES


def test_unknown_id_raises_without_loading_figure_modules():
    code = (
        "from repro.experiments import registry\n"
        "try:\n"
        "    registry.get('fig99')\n"
        "except KeyError as exc:\n"
        "    print(exc.args[0])\n"
    )
    message, loaded = _run(code + _PRINT_LOADED)
    assert message.startswith("unknown experiment 'fig99'; known: ")
    assert message.endswith(", ".join(sorted(registry._EXPERIMENT_MODULES)))
    assert not set(json.loads(loaded)) & FIGURE_MODULES


def test_subpackages_resolve_after_a_bare_import():
    report = _fresh(
        "import json\n"
        "import repro\n"
        "same = repro.sim.Simulator is repro.Simulator\n"
        "try:\n"
        "    repro.no_such_layer\n"
        "    missing = False\n"
        "except AttributeError:\n"
        "    missing = True\n"
        "print(json.dumps([same, missing, hasattr(repro, 'net')]))\n"
    )
    assert report == [True, True, True]


def test_registry_ids_import_no_experiment_module():
    loaded = _loaded_after(
        "from repro.experiments import registry\n"
        "registry.ids()\n"
    )
    assert not loaded & FIGURE_MODULES


def test_cli_help_lists_the_table_without_resolving_it():
    code = (
        "from repro.experiments import __main__ as cli\n"
        "try:\n"
        "    cli.main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    *help_lines, loaded = _run(code + _PRINT_LOADED)
    assert not set(json.loads(loaded)) & FIGURE_MODULES
    choices = ",".join([*sorted(registry._EXPERIMENT_MODULES), "all"])
    assert "{" + choices + "}" in "".join(help_lines)


def test_get_imports_only_the_tables_module_for_each_id():
    # One fresh interpreter, one fork per id: each child starts from the
    # same state and reports the figure modules it loaded.  The parent
    # pre-imports the shared layers, which are no figure module, so that
    # each child pays for its figure module alone.
    code = """
import json, os, sys
import repro.experiments.scenarios, repro.faults, repro.http, repro.metrics
from repro.experiments import registry
figures = set(registry._EXPERIMENT_MODULES.values())
seen = {}
for experiment_id in registry._EXPERIMENT_MODULES:
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        registry.get(experiment_id)
        os.write(write, json.dumps(sorted(figures & set(sys.modules))).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        seen[experiment_id] = json.loads(pipe.read())
    os.waitpid(pid, 0)
print(json.dumps(seen))
"""
    expected = {
        experiment_id: sorted({module} | BUILDS_ON.get(module, set()))
        for experiment_id, module in registry._EXPERIMENT_MODULES.items()
    }
    assert _fresh(code) == expected


def test_table_matches_what_the_modules_register():
    # Drift guard: import every module of the package, then every id
    # and alias registered must be in the table, under the module that
    # defines its class.
    code = """
import importlib, json, pkgutil
import repro.experiments
from repro.experiments import registry
for info in pkgutil.iter_modules(repro.experiments.__path__):
    importlib.import_module(f"repro.experiments.{info.name}")
registered = {}
for experiment_id in [*registry._REGISTRY, *registry._ALIASES]:
    experiment = registry.get(experiment_id)
    registered[experiment_id] = type(experiment).__module__
print(json.dumps(registered))
"""
    assert _fresh(code) == registry._EXPERIMENT_MODULES


def test_public_names_are_their_modules_objects_and_listed_by_dir():
    # Drift guard over every package table: dir() is read before any
    # name is touched; then each name must be the very object its table
    # module holds (the module itself for a submodule entry), defined
    # there when it is a class or function, and listed by __all__.
    code = """
import importlib, inspect, json, pathlib
import repro
root = pathlib.Path(repro.__file__).parent
packages = sorted(
    ".".join(("repro", *path.parent.relative_to(root).parts))
    for path in root.rglob("__init__.py")
)
listed = {name: dir(importlib.import_module(name)) for name in packages}
report = {}
for name in packages:
    package = importlib.import_module(name)
    table = getattr(package, "_LAZY", None)
    if table is None:
        continue
    problems = []
    for public, module in table.items():
        value = getattr(package, public)
        home = importlib.import_module(module)
        own = module.rpartition(".")[2] == public
        if value is not (home if own else getattr(home, public, None)):
            problems.append(f"{public}: not {module}'s object")
        if (inspect.isclass(value) or inspect.isfunction(value)) and (
            value.__module__ != module
        ):
            problems.append(f"{public}: defined in {value.__module__}")
        if public not in listed[name]:
            problems.append(f"{public}: not in dir()")
    for public in package.__all__:
        if not hasattr(package, public):
            problems.append(f"{public}: in __all__, not resolvable")
    report[name] = {"problems": problems, "all": package.__all__,
                    "table": sorted(table)}
print(json.dumps(report))
"""
    report = _fresh(code)
    assert isinstance(report, dict)
    # every layer has a table, and nothing in any table drifted
    assert {"repro", "repro.sim", "repro.net", "repro.tcp", "repro.core",
            "repro.http", "repro.http.openloop", "repro.metrics",
            "repro.faults", "repro.obs", "repro.experiments", "repro.lint",
            "repro.runner", "repro.runner.backends"} <= set(report)
    for package, found in report.items():
        assert found["problems"] == [], package
        assert set(found["table"]) <= set(found["all"]), package
    assert set(report["repro"]["all"]) == set(repro._LAZY) | {
        "experiment_ids", "get_experiment",
    }


def test_package_tables_match_their_typing_imports():
    # What mypy and simlint read (the TYPE_CHECKING imports) is what the
    # package resolves at run time (its table), name for name.
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        table = getattr(importlib.import_module(package), "_LAZY", None)
        if table is None:
            continue
        typed = {}
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                for stmt in node.body:
                    assert isinstance(stmt, ast.ImportFrom), package
                    for alias in stmt.names:
                        assert alias.asname == alias.name, (package, alias.name)
                        submodule = f"{stmt.module}.{alias.name}"
                        own = submodule if table.get(alias.name) == submodule else None
                        typed[alias.name] = own or stmt.module
        assert typed == dict(table), package


# ----------------------------------------------------------------------
# What a serial run loads
# ----------------------------------------------------------------------
#: the first quick point of an experiment through the sweep runner, as
#: a CLI run would execute it; prints the process-wide module report.
_FIRST_POINT_RUN = """
import json, sys
from repro.experiments import registry
from repro.runner import SweepRunner
from repro.tcp.factory import PROTOCOLS, source_class


class FirstPoint:
    def __init__(self, experiment):
        self.experiment = experiment
        self.id = experiment.id

    def points(self, params):
        return self.experiment.points(params)[:1]

    def run_point(self, params, point, seed):
        return self.experiment.run_point(params, point, seed)

    def reduce(self, params, points, results):
        return results


experiment = registry.get({experiment_id!r})
params = experiment.make_params("quick")
runner = SweepRunner(jobs={jobs}, backend={backend!r})
runner.run(FirstPoint(experiment), params, seed=1)
assert not runner.last_stats.failures, runner.last_stats.failures
print(json.dumps({{
    "modules": sorted(sys.modules),
    "ran": sorted({{c.__module__ for c in source_class(params.protocol).__mro__}}),
    "senders": sorted({{module for module, _cls in PROTOCOLS.values()}}),
}}))
"""

#: what only the process pool needs.
_POOL_MODULES = {"multiprocessing", "socket", "concurrent.futures.process",
                 "repro.runner.backends.pool"}


def _first_point(experiment_id: str, backend: str = "serial", jobs: int = 1,
                 **env: str) -> dict:
    report = _fresh(_FIRST_POINT_RUN.format(
        experiment_id=experiment_id, backend=backend, jobs=jobs), **env)
    assert isinstance(report, dict)
    return report


@pytest.mark.parametrize("experiment_id", ["fig8", "fig12", "openloop", "incast"])
def test_a_serial_first_point_loads_only_what_it_runs(experiment_id):
    report = _first_point(experiment_id)
    loaded = set(report["modules"])
    assert not loaded & _POOL_MODULES
    assert "repro.sim.invariants" not in loaded
    assert not [m for m in loaded if m.startswith("repro.obs")]
    # the protocol it ran (and its bases), and no other sender
    assert set(report["ran"]) & set(report["senders"]) <= loaded
    assert loaded & set(report["senders"]) <= set(report["ran"])


def test_the_process_backend_still_loads_the_pool():
    # Positive control: the probe sees the pool when a run uses one.
    loaded = set(_first_point("incast", backend="process", jobs=2)["modules"])
    assert _POOL_MODULES <= loaded


_WORKER_PROBE = """
import sys

from repro.experiments import registry


class FirstIncastPoint:
    \"\"\"incast's first point; its value is what the worker has loaded.\"\"\"

    id = "worker_probe:FIRST_INCAST_POINT"

    def points(self, params):
        return registry.get("incast").points(params)[:1]

    def run_point(self, params, point, seed):
        registry.get("incast").run_point(params, point, seed)
        return sorted(sys.modules)

    def reduce(self, params, points, results):
        return results[0]


FIRST_INCAST_POINT = FirstIncastPoint()
"""


def test_a_pool_worker_loads_only_what_its_point_runs(tmp_path):
    # A spawned worker imports what unpickling its task needs and what
    # the point runs, none of the sweeping process's modules.
    (tmp_path / "worker_probe.py").write_text(_WORKER_PROBE)
    worker = _fresh(
        f"import json, sys\n"
        f"sys.path.insert(0, {str(tmp_path)!r})\n"
        "import worker_probe\n"
        "from repro.experiments import registry\n"
        "from repro.runner import SweepRunner\n"
        "params = registry.get('incast').make_params('quick')\n"
        "runner = SweepRunner(jobs=2, backend='process')\n"
        "modules = runner.run(worker_probe.FIRST_INCAST_POINT, params, seed=1)\n"
        "assert not runner.last_stats.failures, runner.last_stats.failures\n"
        "print(json.dumps(modules))\n"
    )
    assert isinstance(worker, list)
    loaded = set(worker)
    assert {"repro.experiments.incast", "repro.runner.backends.pool"} <= loaded
    assert "numpy" not in loaded
    assert not [m for m in loaded if m.startswith("repro.obs")]


def test_checked_invariants_still_load_the_monitor():
    report = _first_point("incast", REPRO_CHECK_INVARIANTS="1")
    assert "repro.sim.invariants" in report["modules"]


def test_a_traced_openloop_point_still_loads_the_capture_module(tmp_path):
    # Positive control for the untraced openloop case above: the open-
    # loop package no longer reaches repro.obs through its trace format,
    # but a traced run loads the capture module.
    traced = _first_point("openloop", REPRO_TRACE="cwnd",
                          REPRO_TRACE_OUT=str(tmp_path))["modules"]
    assert "repro.obs.capture" in traced
