"""simlint's cross-module rules and the machine-readable CLI output.

Each cross-module family (SIM011, SIM012, SIM014, SIM015) gets a
positive fixture (the smuggled-RNG / wall-clock / unit-mix-up /
contract-violation snippet) and an adjacent negative fixture.
"""

import json

import pytest

from repro.lint import lint_source
from repro.lint.core import lint_module_in_project
from repro.lint.project import ProjectContext
from repro.lint.__main__ import main as lint_main


def lint_project(sources, select=None):
    """Lint an in-memory multi-module project ({dotted_name: source})."""
    project = ProjectContext.from_sources(sources)
    findings = []
    for info in project.modules_in_path_order():
        findings.extend(lint_module_in_project(project, info.context, select))
    return sorted(findings)


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestProjectContext:
    def test_resolve_function_across_modules(self):
        project = ProjectContext.from_sources(
            {
                "helpers": "def fresh():\n    return 1\n",
                "usersite": "from helpers import fresh\nx = fresh()\n",
            }
        )
        module = project.modules["usersite"].context
        import ast

        call = next(
            n for n in ast.walk(module.tree) if isinstance(n, ast.Call)
        )
        target = project.resolve_function(module, call)
        assert target is not None
        assert target.full_name == "helpers.fresh"


class TestSim011RngProvenance:
    def test_flags_rng_laundered_through_helper_in_another_module(self):
        findings = lint_project(
            {
                "proj.helpers": (
                    "import random\n"
                    "def fresh_rng():\n"
                    "    return random.Random()\n"
                ),
                "proj.mainmod": (
                    "from proj.helpers import fresh_rng\n"
                    "rng = fresh_rng()\n"
                ),
            },
            select=["SIM011"],
        )
        assert rule_ids(findings) == ["SIM011"]
        assert findings[0].path == "proj/mainmod.py"
        assert "proj.helpers.fresh_rng" in findings[0].message

    def test_taint_propagates_two_helper_hops(self):
        findings = lint_project(
            {
                "proj.inner": (
                    "import random\n"
                    "def mint():\n"
                    "    return random.Random()\n"
                ),
                "proj.outer": (
                    "from proj.inner import mint\n"
                    "def wrap():\n"
                    "    rng = mint()\n"
                    "    return rng\n"
                ),
                "proj.use": "from proj.outer import wrap\nr = wrap()\n",
            },
            select=["SIM011"],
        )
        paths = sorted({f.path for f in findings})
        # outer's call to mint() and use's call to wrap() both flag.
        assert paths == ["proj/outer.py", "proj/use.py"]

    def test_entropy_free_default_rng_flagged_even_in_randomness_home(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        findings = lint_source(
            src, path="repro/sim/randomness.py", select=["SIM011"]
        )
        assert rule_ids(findings) == ["SIM011"]
        assert "entropy-free" in findings[0].message

    def test_helper_forwarding_seeded_rng_is_fine(self):
        findings = lint_project(
            {
                "proj.helpers": (
                    "from repro.sim.randomness import seeded_rng\n"
                    "def stream(seed):\n"
                    "    return seeded_rng(seed, 'flows')\n"
                ),
                "proj.mainmod": (
                    "from proj.helpers import stream\n"
                    "rng = stream(7)\n"
                ),
            },
            select=["SIM011"],
        )
        assert findings == []


class TestSim012WallClockTaint:
    def test_flags_wall_clock_value_scheduled(self):
        src = (
            "import time\n"
            "def arm(sim, cb):\n"
            "    t = time.time()\n"
            "    sim.schedule(t + 0.1, cb)\n"
        )
        findings = lint_source(src, select=["SIM012"])
        assert rule_ids(findings) == ["SIM012"]
        assert "wall-clock" in findings[0].message

    def test_flags_perf_counter_through_cross_module_helper(self):
        findings = lint_project(
            {
                "proj.clock": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.perf_counter()\n"
                ),
                "proj.driver": (
                    "from proj.clock import stamp\n"
                    "def arm(sim, cb):\n"
                    "    sim.schedule_at(stamp(), cb)\n"
                ),
            },
            select=["SIM012"],
        )
        assert rule_ids(findings) == ["SIM012"]
        assert findings[0].path == "proj/driver.py"
        assert "proj.clock.stamp" in findings[0].message

    def test_sim_now_arithmetic_is_fine(self):
        src = (
            "def arm(sim, cb, delay_s):\n"
            "    sim.schedule(sim.now + delay_s, cb)\n"
        )
        assert lint_source(src, select=["SIM012"]) == []

    def test_perf_counter_for_display_is_fine(self):
        src = (
            "import time\n"
            "def bench(run):\n"
            "    t0 = time.perf_counter()\n"
            "    run()\n"
            "    return time.perf_counter() - t0\n"
        )
        assert lint_source(src, select=["SIM012"]) == []


class TestSim014UnitDimensions:
    def test_flags_seconds_plus_bytes(self):
        src = "def f(delay_s, size_bytes):\n    return delay_s + size_bytes\n"
        findings = lint_source(src, select=["SIM014"])
        assert rule_ids(findings) == ["SIM014"]
        assert "'s'" in findings[0].message
        assert "'bytes'" in findings[0].message

    def test_flags_cross_unit_comparison_and_keyword(self):
        src = "def f(window_pkts, budget_bytes):\n    return window_pkts < budget_bytes\n"
        assert rule_ids(lint_source(src, select=["SIM014"])) == ["SIM014"]
        src = "def f(g, size_bytes):\n    return g(timeout_s=size_bytes)\n"
        assert rule_ids(lint_source(src, select=["SIM014"])) == ["SIM014"]

    def test_same_unit_and_unsuffixed_operands_are_fine(self):
        src = (
            "def f(delay_s, rtt_s, n):\n"
            "    total_s = delay_s + rtt_s\n"
            "    return total_s + n\n"
        )
        assert lint_source(src, select=["SIM014"]) == []

    def test_millis_vs_seconds_flagged(self):
        src = "def f(rto_ms, rtt_s):\n    return rto_ms - rtt_s\n"
        assert rule_ids(lint_source(src, select=["SIM014"])) == ["SIM014"]


EXPERIMENT_PREAMBLE = (
    "from repro.experiments.base import Experiment\n"
    "from repro.experiments.registry import register\n"
)


class TestSim015ExperimentConformance:
    def test_flags_missing_declarations_and_print(self):
        src = EXPERIMENT_PREAMBLE + (
            "@register\n"
            "class Bad(Experiment):\n"
            "    def points(self, params):\n"
            "        return []\n"
            "    def run_point(self, params, point, seed):\n"
            "        print('progress')\n"
            "        return None\n"
            "    def reduce(self, params, points, results):\n"
            "        return list(results)\n"
        )
        findings = lint_source(src, select=["SIM015"])
        assert rule_ids(findings) == ["SIM015"]
        messages = "\n".join(f.message for f in findings)
        assert "does not declare id, title, params_cls" in messages
        assert "prints directly" in messages

    def test_flags_file_write_in_run_point(self):
        src = EXPERIMENT_PREAMBLE + (
            "@register\n"
            "class Leaky(Experiment):\n"
            "    id = 'leaky'\n"
            "    title = 'Leaky'\n"
            "    params_cls = None\n"
            "    def points(self, params):\n"
            "        return []\n"
            "    def run_point(self, params, point, seed):\n"
            "        with open('out.csv', 'w') as fh:\n"
            "            fh.write('x')\n"
            "        return None\n"
            "    def reduce(self, params, points, results):\n"
            "        return list(results)\n"
        )
        findings = lint_source(src, select=["SIM015"])
        assert len(findings) == 1
        assert "writes a file directly" in findings[0].message

    def test_conforming_experiment_is_fine(self):
        src = EXPERIMENT_PREAMBLE + (
            "@register\n"
            "class Fine(Experiment):\n"
            "    id = 'fine'\n"
            "    title = 'Fine'\n"
            "    params_cls = None\n"
            "    def points(self, params):\n"
            "        return []\n"
            "    def run_point(self, params, point, seed):\n"
            "        return {'ok': True}\n"
            "    def reduce(self, params, points, results):\n"
            "        return list(results)\n"
        )
        assert lint_source(src, select=["SIM015"]) == []

    def test_unregistered_subclass_is_not_held_to_declarations(self):
        src = (
            "from repro.experiments.base import Experiment\n"
            "class AbstractMixin(Experiment):\n"
            "    def points(self, params):\n"
            "        return []\n"
            "    def run_point(self, params, point, seed):\n"
            "        return None\n"
            "    def reduce(self, params, points, results):\n"
            "        return list(results)\n"
        )
        assert lint_source(src, select=["SIM015"]) == []

    def test_flags_positional_flow_id_to_sink_and_connect(self):
        # Python enforces what this rule once counted: flow_id= and
        # config= are keyword-only at every connection factory.
        from repro.experiments.scenarios import ConnectionSet
        from repro.net.topology import build_star
        from repro.sim.kernel import Simulator
        from repro.tcp.base import TcpConfig, TcpSink
        from repro.tcp.factory import create_source, make_connection

        sim = Simulator()
        star = build_star(sim, 2)
        server, frontend = star.servers[0], star.frontend
        connections = ConnectionSet(sim, "reno")
        calls = [
            lambda: TcpSink(sim, frontend, 7),
            lambda: create_source("reno", sim, server, frontend.node_id, 7),
            lambda: make_connection("reno", sim, server, frontend, 7),
            lambda: connections.connect(server, frontend, TcpConfig()),
            lambda: connections.connect_many(star.servers, frontend, TcpConfig()),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
        assert connections.sources == []

    def test_keyword_call_sites_and_topology_connect_are_fine(self):
        from repro.experiments.scenarios import ConnectionSet
        from repro.net.topology import Network
        from repro.sim.kernel import Simulator
        from repro.tcp.base import TcpConfig, TcpSink

        sim = Simulator()
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")
        # The topology builder's link wiring stays positional.
        net.connect(a, b, 1e9, 50e-6, 100)
        sink = TcpSink(sim, b, flow_id=7)
        assert sink.flow_id == 7
        connections = ConnectionSet(sim, "reno")
        source, _ = connections.connect(a, b, config=TcpConfig())
        assert connections.sources == [source]
        src = (
            "from repro.tcp.base import TcpSink\n"
            "def build(sim, host, fid, net, a, b, bw, delay, buf):\n"
            "    sink = TcpSink(sim, host, flow_id=fid)\n"
            "    net.connect(a, b, bw, delay, buf)\n"
        )
        assert lint_source(src, select=["SIM015"]) == []


class TestSim016UnjustifiedSuppression:
    def test_flags_bare_directive(self):
        src = "import random  # simlint: disable=SIM001\n"
        findings = lint_source(src, select=["SIM016"])
        assert rule_ids(findings) == ["SIM016"]
        assert findings[0].line == 1

    def test_unjustified_disable_all_cannot_self_suppress(self):
        src = "import random  # simlint: disable=all\n"
        findings = lint_source(src, select=["SIM016"])
        assert rule_ids(findings) == ["SIM016"]

    def test_justified_directives_pass(self):
        src = (
            "import random  # deterministic shim  # simlint: disable=SIM001\n"
            "# exact tie-break required; see Event.__lt__\n"
            "# simlint: disable=SIM003\n"
            "ok = a.time == b.time\n"
        )
        assert lint_source(src, select=["SIM016"]) == []

    def test_multiple_ids_on_one_line(self):
        src = (
            "import random  # shim for both rules  "
            "# simlint: disable=SIM001,SIM002\n"
        )
        assert lint_source(src) == []

    def test_directive_inside_docstring_is_ignored(self):
        src = '"""docs mention # simlint: disable=SIM001 as an example"""\n'
        assert lint_source(src, select=["SIM016"]) == []
        # ...and it is not a live suppression either.
        src = '"""# simlint: disable=SIM001"""\nimport random\n'
        assert "SIM001" in rule_ids(lint_source(src, select=["SIM001"]))


class TestCliV2:
    def test_json_format_payload_is_pure(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert lint_main([str(bad), "--format", "json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload[0]["rule_id"] == "SIM001"
        assert "1 finding(s)" in captured.err

    def test_syntax_error_is_usage_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert lint_main([str(broken)]) == 2
        capsys.readouterr()
