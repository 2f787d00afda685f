"""simlint: a positive and a negative fixture per rule, plus the CLI.

Every rule gets at least one snippet it must flag and one adjacent
snippet it must leave alone (the false-positive guard).  The suite ends
with the self-check: the shipped ``src/repro`` tree lints clean.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.lint import Finding, all_rules, lint_paths, lint_source
from repro.lint.__main__ import main as lint_main


#: SIM009 went with the hook slot it policed (PR 13); SIM004, SIM006 and
#: SIM007 with the linter's first cut (ruff B006/B008, the kernel's own
#: re-entry guard, and abc + SIM015 cover them).
RETIRED = (4, 6, 7, 9, 13)


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestFramework:
    def test_all_rules_registered_and_ordered(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert ids == sorted(ids)
        # Retired ids (CONTRIBUTING.md says what covers each) are never
        # renumbered, so the sequence keeps the gaps.
        assert ids == [f"SIM{n:03d}" for n in range(1, 18) if n not in RETIRED]
        for rule in rules:
            assert rule.summary and rule.fixit

    def test_finding_render_includes_fixit(self):
        finding = Finding("a.py", 3, 0, "SIM001", "boom", fixit="use seeded_rng")
        text = finding.render()
        assert "a.py:3:0: SIM001 boom" in text
        assert "use seeded_rng" in text

    def test_select_restricts_rules(self):
        src = "import random\nimport time\nt = time.time()\n"
        assert rule_ids(lint_source(src)) == ["SIM001", "SIM002"]
        assert rule_ids(lint_source(src, select=["SIM002"])) == ["SIM002"]


class TestSuppression:
    def test_trailing_comment_suppresses(self):
        src = "import random  # deterministic shim  # simlint: disable=SIM001\n"
        assert lint_source(src) == []

    def test_preceding_comment_line_suppresses_next_line(self):
        src = (
            "# The tie-break must be exact here; see Event.__lt__.\n"
            "# simlint: disable=SIM003\n"
            "ok = a.time == b.time\n"
        )
        assert lint_source(src) == []

    def test_disable_all(self):
        src = "import random  # fixture needs raw stdlib  # simlint: disable=all\n"
        assert lint_source(src) == []

    def test_suppression_is_per_line(self):
        src = (
            "import random  # shim  # simlint: disable=SIM001\n"
            "import random\n"
        )
        findings = lint_source(src)
        assert [f.line for f in findings] == [2]

    def test_wrong_id_does_not_suppress(self):
        src = "import random  # shim  # simlint: disable=SIM002\n"
        assert rule_ids(lint_source(src)) == ["SIM001"]


class TestSim001Randomness:
    def test_flags_stdlib_random_import(self):
        assert rule_ids(lint_source("import random\n")) == ["SIM001"]
        assert rule_ids(lint_source("from random import choice\n")) == ["SIM001"]

    def test_flags_numpy_generator_construction_through_alias(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        findings = lint_source(src)
        assert rule_ids(findings) == ["SIM001"]
        assert findings[0].line == 2

    def test_flags_global_numpy_draws(self):
        src = "import numpy\nx = numpy.random.uniform(0, 1)\n"
        assert rule_ids(lint_source(src)) == ["SIM001"]

    def test_allows_seeded_rng_helper(self):
        src = (
            "from repro.sim.randomness import seeded_rng\n"
            "rng = seeded_rng(7)\n"
            "x = rng.uniform(0, 1)\n"
        )
        assert lint_source(src) == []

    def test_flags_generator_construction_outside_the_home(self):
        # A generator built from hand-picked state words bypasses the
        # seed derivation, whichever way the class is reached.
        for src in (
            "from repro.sim.randomness import Pcg64Generator\n"
            "rng = Pcg64Generator([0] * 8)\n",
            "from repro.sim import randomness\n"
            "rng = randomness.Pcg64Generator([0] * 8)\n",
        ):
            findings = lint_source(src)
            assert rule_ids(findings) == ["SIM001"]
            assert findings[0].line == 2
        src = "from repro.sim import randomness\nrandomness.Pcg64Generator([0] * 8)\n"
        assert lint_source(src, path="repro/sim/randomness.py") == []

    def test_generator_type_annotation_is_not_a_construction(self):
        src = (
            "from repro.sim.randomness import Pcg64Generator\n"
            "def draw(rng: Pcg64Generator) -> float:\n"
            "    return rng.random()\n"
        )
        assert lint_source(src) == []

    def test_randomness_home_is_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_source(src, path="repro/sim/randomness.py") == []

    def test_generator_annotation_is_not_a_call(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> float:\n"
            "    return float(rng.uniform())\n"
        )
        assert lint_source(src) == []


class TestSim002WallClock:
    def test_flags_time_time(self):
        src = "import time\nt = time.time()\n"
        assert rule_ids(lint_source(src)) == ["SIM002"]

    def test_flags_datetime_now_through_from_import(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert rule_ids(lint_source(src)) == ["SIM002"]

    def test_perf_counter_is_permitted(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src) == []


class TestSim003TimeEquality:
    def test_flags_equality_on_time_attributes(self):
        src = "def same(a, b):\n    return a.time == b.time\n"
        assert rule_ids(lint_source(src)) == ["SIM003"]

    def test_flags_inequality_on_time_suffix(self):
        src = "def f(m, t):\n    return m.finish_time != t\n"
        assert rule_ids(lint_source(src)) == ["SIM003"]

    def test_ordering_comparisons_are_fine(self):
        src = "def f(a, b):\n    return a.time <= b.time\n"
        assert lint_source(src) == []

    def test_none_checks_are_fine(self):
        src = (
            "def f(m):\n"
            "    return m.finish_time is not None and m.finish_time == None\n"
        )
        assert lint_source(src) == []


class TestSim005ModuleMutableState:
    def test_flags_module_dict_in_tcp(self):
        src = "CACHE = {}\n"
        findings = lint_source(src, path="repro/tcp/state.py")
        assert rule_ids(findings) == ["SIM005"]

    def test_flags_annotated_list_in_net(self):
        src = "PENDING: list = []\n"
        assert rule_ids(lint_source(src, path="repro/net/state.py")) == ["SIM005"]

    def test_out_of_scope_paths_are_fine(self):
        src = "CACHE = {}\n"
        assert lint_source(src, path="repro/metrics/state.py") == []

    def test_immutable_and_dunder_are_fine(self):
        src = "__all__ = ['a']\nTABLE = (1, 2)\nNAMES = frozenset({'x'})\n"
        assert lint_source(src, path="repro/tcp/consts.py") == []


class TestSim008FaultBypass:
    def test_flags_direct_deliver_call(self):
        src = "def chaos(link, pkt):\n    link._deliver(pkt)\n"
        findings = lint_source(src, path="repro/experiments/chaos.py")
        assert rule_ids(findings) == ["SIM008"]
        assert "FaultPlan" in findings[0].fixit

    def test_flags_capacity_write_and_augment(self):
        src = "def shrink(queue):\n    queue.capacity_pkts = 2\n"
        assert rule_ids(
            lint_source(src, path="repro/experiments/chaos.py")
        ) == ["SIM008"]
        src = "def shrink(queue):\n    queue.capacity_pkts -= 4\n"
        assert rule_ids(
            lint_source(src, path="repro/experiments/chaos.py")
        ) == ["SIM008"]

    def test_self_receiver_is_fine(self):
        # TcpSink has its own _deliver; queues assign their own capacity.
        src = (
            "class Sink:\n"
            "    def receive(self, pkt):\n"
            "        self._deliver(pkt)\n"
            "    def grow(self):\n"
            "        self.capacity_pkts = 8\n"
        )
        assert lint_source(src, path="repro/tcp/sink.py") == []

    def test_net_and_faults_layers_are_exempt(self):
        src = "def deliver(link, pkt):\n    link._deliver(pkt)\n"
        assert lint_source(src, path="repro/net/link.py") == []
        src = "def shrink(queue):\n    queue.capacity_pkts = 2\n"
        assert lint_source(src, path="repro/faults/injector.py") == []

    def test_sanctioned_resize_is_fine(self):
        src = "def shrink(queue):\n    queue.resize(2)\n"
        assert lint_source(src, path="repro/experiments/chaos.py") == []


class TestSim010RawExecutor:
    def test_flags_direct_construction(self):
        src = (
            "import concurrent.futures\n"
            "def fan_out(n):\n"
            "    return concurrent.futures.ProcessPoolExecutor(max_workers=n)\n"
        )
        findings = lint_source(src, path="repro/runner/engine.py")
        assert rule_ids(findings) == ["SIM010"]
        assert "create_backend" in findings[0].fixit

    def test_flags_from_import_construction(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def fan_out(n):\n"
            "    return ProcessPoolExecutor(n)\n"
        )
        assert rule_ids(
            lint_source(src, path="repro/experiments/custom.py")
        ) == ["SIM010"]

    def test_backends_package_is_exempt(self):
        src = (
            "import concurrent.futures\n"
            "def make(n):\n"
            "    return concurrent.futures.ProcessPoolExecutor(max_workers=n)\n"
        )
        assert lint_source(src, path="repro/runner/backends/pool.py") == []

    def test_other_executors_are_fine(self):
        # ThreadPoolExecutor is not the sweep seam (tests use it for
        # deterministic straggler timing via a _make_pool override).
        src = (
            "import concurrent.futures\n"
            "def make(n):\n"
            "    return concurrent.futures.ThreadPoolExecutor(n)\n"
        )
        assert lint_source(src, path="repro/runner/engine.py") == []


class TestSim017RawSocket:
    def test_flags_direct_socket(self):
        src = (
            "import socket\n"
            "def dial(host, port):\n"
            "    return socket.socket(socket.AF_INET, socket.SOCK_STREAM)\n"
        )
        findings = lint_source(src, path="repro/obs/export.py")
        assert rule_ids(findings) == ["SIM017"]
        assert "SweepBackend" in findings[0].fixit

    def test_flags_create_connection_and_server(self):
        src = (
            "import socket\n"
            "def up(addr):\n"
            "    a = socket.create_connection(addr)\n"
            "    b = socket.create_server(addr)\n"
            "    return a, b\n"
        )
        findings = lint_source(src, path="repro/experiments/custom.py")
        assert rule_ids(findings) == ["SIM017"]
        assert len(findings) == 2

    @pytest.mark.parametrize(
        "path", ["repro/runner/backends/pool.py", "repro/runner/dispatch/frames.py"]
    )
    def test_runner_package_is_not_exempt(self, path):
        # No directory under src/repro may open a socket, the runner's
        # included: sweep work crosses process pipes, not a network.
        src = (
            "import socket\n"
            "def listen():\n"
            "    return socket.create_server(('127.0.0.1', 0))\n"
        )
        assert rule_ids(lint_source(src, path=path)) == ["SIM017"]

    def test_non_constructor_socket_use_is_fine(self):
        src = (
            "import socket\n"
            "def name():\n"
            "    return socket.gethostname()\n"
        )
        assert lint_source(src, path="repro/runner/engine.py") == []


class TestCli:
    def test_nonzero_exit_and_fixit_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out
        assert "fix:" in out
        assert "1 finding" in out

    def test_zero_exit_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_select_option(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert lint_main([str(bad), "--select", "SIM002"]) == 0
        assert lint_main([str(bad), "--select", "SIM001"]) == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 18):
            assert (f"SIM{n:03d}" in out) == (n not in RETIRED)

    def test_list_rules_matches_contributing_table(self, capsys):
        """Doc-drift guard: the live rows of CONTRIBUTING.md's rule table
        are exactly the registered rules (retired rows say so)."""
        text = (Path(__file__).parent.parent / "CONTRIBUTING.md").read_text()
        rows = re.findall(r"^\| (SIM\d{3}) +\| (.*)$", text, flags=re.MULTILINE)
        assert [rid for rid, _ in rows] == [f"SIM{n:03d}" for n in range(1, 18)]
        live = [rid for rid, rest in rows if not rest.startswith("*(retired")]
        assert lint_main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == live

    @pytest.mark.parametrize(
        "argv",
        [
            ["--cache", "state.json"],
            ["--journal", "journal.json"],
            ["--baseline", "baseline.json"],
            ["--write-baseline", "baseline.json"],
            ["--changed-since", "HEAD"],
            ["--format", "sarif"],
        ],
        ids=[
            "cache", "journal", "baseline", "write-baseline", "changed-since",
            "format-sarif",
        ],
    )
    def test_removed_flag_is_usage_error(self, argv, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        with pytest.raises(SystemExit) as exit_info:
            lint_main([str(clean), *argv])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_directory_walk(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("import random\n")
        (pkg / "b.py").write_text("import time\nt = time.time()\n")
        findings = lint_paths([str(pkg)])
        assert rule_ids(findings) == ["SIM001", "SIM002"]


class TestSelfCheck:
    def test_shipped_package_lints_clean(self):
        """The guard the CI lint job enforces: src/repro has no findings."""
        package_dir = Path(repro.__file__).parent
        findings = lint_paths([str(package_dir)])
        assert findings == [], "\n".join(f.render() for f in findings)
