"""A process loads only what it runs.

Every check starts a fresh interpreter, so what it sees is the import
graph itself and not whatever this test session happened to import:

* ``import repro`` loads no other ``repro`` module; its public names
  resolve on first access;
* ``import repro.runner`` leaves the dispatch fleet, the observability
  layer and every figure module alone, and a dispatch worker never
  loads the fleet side;
* the registry's table answers ``ids()`` without importing an
  experiment module, and ``get(id)`` imports just that id's module;
* numpy loads at the first generator construction, never before: a
  sweep whose points draw nothing (``incast``) runs and serializes its
  payload without it.

The drift guard holds the table equal to what the experiment modules
register, so an experiment missing from the table fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _run(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; its stdout lines."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter; its last stdout line, as JSON."""
    return json.loads(_run(code)[-1])


def _loaded_after(code: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    loaded = _fresh(code + _PRINT_LOADED)
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
    assert not _loads_numpy(
        "import repro.runner.dispatch.worker as worker\n"
        "worker.resolve_experiment('incast')\n"
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


def test_the_first_generator_loads_numpy():
    # Positive control: the probe above would see numpy if it were there.
    assert _loads_numpy(
        "from repro.sim.randomness import RandomStreams\n"
        "RandomStreams(1).get('x')\n"
    )


def test_import_repro_loads_no_other_repro_module():
    assert _loaded_after("import repro") == {"repro"}


def test_import_runner_loads_no_fleet_obs_or_figure_module():
    loaded = _loaded_after("import repro.runner")
    assert "repro.runner.dispatch.backend" not in loaded
    assert not [m for m in loaded if m.startswith("repro.obs")]
    assert not loaded & FIGURE_MODULES


def test_dispatch_worker_never_loads_the_fleet_side():
    # The worker module's import path, then the lookup a task frame makes.
    loaded = _loaded_after(
        "import repro.runner.dispatch.worker as worker\n"
        "worker.resolve_experiment('incast')\n"
    )
    assert "repro.runner.dispatch.worker" in loaded
    assert "repro.runner.dispatch.backend" not in loaded
    assert "repro.obs.dispatch" not in loaded


def test_module_attribute_ids_load_no_figure_module():
    # A ``module:attr`` id misses the table, so resolving it (as a chaos
    # worker does) must not fall back to importing every figure module.
    loaded = _loaded_after(
        "from repro.runner.backends.base import resolve_experiment\n"
        "resolve_experiment('repro.runner.dispatch.chaos:CHAOS')\n"
    )
    assert "repro.runner.dispatch.chaos" in loaded
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
    # dir() is read before any name is touched; then each name must be
    # the very object its table module and its defining module hold.
    code = """
import importlib, json
import repro
listed = dir(repro)
mismatched = []
for name in repro.__all__:
    value = getattr(repro, name)
    table = repro._LAZY.get(name, "repro")
    for module in {table, getattr(value, "__module__", None) or table}:
        if getattr(importlib.import_module(module), name) is not value:
            mismatched.append(f"{module}.{name}")
print(json.dumps({"mismatched": mismatched, "dir": listed}))
"""
    report = _fresh(code)
    assert isinstance(report, dict)
    assert report["mismatched"] == []
    assert set(repro.__all__) <= set(report["dir"])
    assert set(repro._LAZY) | {"experiment_ids", "get_experiment"} == set(
        repro.__all__
    )
