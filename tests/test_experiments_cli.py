"""Tests for the ``python -m repro.experiments`` command line."""

import pytest

from repro.experiments import __main__ as cli
from repro.experiments import registry
from tests.helpers import canonical_ids


class TestArgumentParsing:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig4", "--preset", "huge"])

    def test_experiment_table_covers_all_figures(self, capsys):
        expected = {
            "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12", "table1", "fig13a",
            "fig13be", "ablations", "incast", "faults", "openloop",
            "matrix",
        }
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        help_text = "".join(capsys.readouterr().out.split())
        assert "{" + ",".join([*sorted(expected), "all"]) + "}" in help_text

    def test_capability_flags_follow_the_params_fields(self):
        # fig1 also serves fig2: both are workload characterizations.
        flags = {
            name: (exp.uses_protocols, exp.accepts_fault_plan, exp.accepts_openloop)
            for name, exp in ((n, registry.get(n)) for n in canonical_ids())
        }
        assert {n for n, f in flags.items() if not f[0]} == {"ablations", "fig1"}
        assert {n for n, f in flags.items() if f[1]} == {"faults"}
        assert {n for n, f in flags.items() if f[2]} == {"openloop"}

    def test_resume_requires_checkpointing(self):
        with pytest.raises(SystemExit):
            cli.main(["faults", "--resume", "--no-checkpoint"])

    def test_fault_plan_rejected_for_wrong_experiment(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('[{"kind": "link_down", "time": 0.1}]')
        with pytest.raises(SystemExit):
            cli.main(["fig4", "--fault-plan", str(plan)])

    def test_malformed_fault_plan_rejected_at_parse_time(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('[{"kind": "meteor_strike", "time": 0.1}]')
        with pytest.raises(SystemExit):
            cli.main(["faults", "--fault-plan", str(plan)])

    def test_negative_seed_rejected_at_parse_time(self, capsys):
        # Not a traceback from deep inside the sweep's seed derivation.
        with pytest.raises(SystemExit) as exc:
            cli.main(["incast", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_timeout_must_be_positive_and_finite(self, value, capsys):
        # 0 and -1 used to end in a ValueError traceback; nan was
        # accepted and then timed out every pooled point.
        with pytest.raises(SystemExit) as exc:
            cli.main(["incast", "--jobs", "2", "--timeout", value])
        assert exc.value.code == 2
        assert "--timeout: timeout must be > 0" in capsys.readouterr().err

    def test_checkpoint_naming_a_directory_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["incast", "--checkpoint", str(tmp_path)])
        assert exc.value.code == 2
        assert f"--checkpoint {tmp_path}: is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--no-checkpoint"]])
    def test_cache_dir_naming_a_file_rejected(self, extra, tmp_path, capsys):
        # Without the check: NotADirectoryError, or (no journal) one
        # "corrupt cache entry" warning per point and exit 0.
        path = tmp_path / "cache-file"
        path.write_text("")
        with pytest.raises(SystemExit) as exc:
            cli.main(["incast", "--cache-dir", str(path), *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--cache-dir {path}: exists and is not a directory" in err


class TestExecution:
    def test_fig1_runs_end_to_end(self, capsys):
        assert cli.main(["fig1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fig.1/2 workload" in out
        assert "LPTs" in out

    def test_protocol_list_parsing(self, capsys):
        # fig1 ignores protocols but exercises the parsing path.
        assert cli.main(["fig2", "--protocols", "reno , trim,"]) == 0

    def test_quick_experiment_with_single_protocol(self, capsys):
        assert cli.main(["fig4", "--protocols", "reno"]) == 0
        out = capsys.readouterr().out
        assert "inherited cwnd" in out
        assert "timeouts/conn" in out

    def test_faults_experiment_with_plan_checkpoint_and_resume(
        self, tmp_path, capsys
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '[{"kind": "loss_burst", "time": 0.05, "link": "sw->frontend",'
            ' "rate": 0.2, "duration": 0.1}]'
        )
        journal = tmp_path / "journal.jsonl"
        argv = [
            "faults", "--preset", "quick", "--protocols", "reno",
            "--no-cache", "--fault-plan", str(plan),
            "--checkpoint", str(journal),
        ]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "fault intensity" in out
        assert "injected" in out
        assert journal.exists()

        assert cli.main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2/2 resumed" in out


class TestDispatchCli:
    """How a sweep is dispatched: --backend, --retry-policy, --timeout."""

    def test_removed_shm_backend_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig1", "--backend", "shm"])
        assert exit_info.value.code == 2

    def test_bad_retry_policy_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            cli.main(["fig1", "--retry-policy", "attempts=2,warp=9"])

    @staticmethod
    def _assert_usage_error(capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig1", "--no-cache", "--no-checkpoint", *argv])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_retry_policy_rejects_a_repeated_key(self, capsys):
        self._assert_usage_error(
            capsys, ["--retry-policy", "attempts=3,attempts=4"],
            "--retry-policy",
        )

    def test_trace_rejects_an_empty_decimation_step(self, capsys):
        for trace in ("cwnd@", "probe@"):
            self._assert_usage_error(capsys, ["--trace", trace], "--trace")

    @staticmethod
    def _toys(monkeypatch):
        """Put the sweep toys on both our and the workers' paths."""
        import os
        import sys
        from pathlib import Path

        tests_dir = str(Path(__file__).resolve().parent)
        if tests_dir not in sys.path:
            sys.path.insert(0, tests_dir)
        existing = os.environ.get("PYTHONPATH", "")
        joined = (
            tests_dir + os.pathsep + existing if existing else tests_dir
        )
        monkeypatch.setenv("PYTHONPATH", joined)
        import sweep_toys

        return sweep_toys

    @classmethod
    def _register_poison(cls, monkeypatch, **toy_params):
        """Register ``toypoison``: the POISON toy with fixed params."""
        sweep_toys = cls._toys(monkeypatch)

        class _CliPoison(sweep_toys.PoisonExperiment):
            def make_params(self, preset="quick", protocol=None, **overrides):
                return sweep_toys.ToyParams(**toy_params)

        monkeypatch.setitem(registry._REGISTRY, "toypoison", _CliPoison())

    def test_process_backend_runs_end_to_end(
        self, monkeypatch, tmp_path, capsys
    ):
        sweep_toys = self._toys(monkeypatch)

        class _CliEcho(sweep_toys.EchoExperiment):
            def make_params(self, preset="quick", protocol=None, **overrides):
                return sweep_toys.ToyParams(n_points=4)

        monkeypatch.setitem(registry._REGISTRY, "toyecho", _CliEcho())
        journal = tmp_path / "journal.jsonl"
        argv = [
            "toyecho", "--preset", "quick", "--no-cache",
            "--backend", "process", "--jobs", "2",
            "--checkpoint", str(journal),
            "--retry-policy", "attempts=2",
        ]
        assert cli.main(argv) == 0
        assert journal.read_text().count('"result"') == 4

    def test_retry_policy_is_one_budget_under_a_timeout(
        self, monkeypatch, tmp_path
    ):
        # attempts=3 bounds a point's executions *in total*.  p0 fails
        # 0.3 s in, on a one-worker pool, with --timeout armed so that
        # a resubmission interleaves with the failures: a budget kept
        # per resubmission would run it a fourth time.
        self._register_poison(
            monkeypatch, n_points=8, state_dir=str(tmp_path), labels=("p0",),
            sleep_s=0.3,
        )
        argv = [
            "toypoison", "--preset", "quick", "--no-cache", "--no-checkpoint",
            "--backend", "process", "--jobs", "1",
            "--timeout", "0.9", "--retry-policy", "attempts=3",
        ]
        with pytest.warns(RuntimeWarning, match="failed"):
            assert cli.main(argv) == 1
        runs = (tmp_path / "p0.runs").read_text().splitlines()
        assert 1 <= len(runs) <= 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--retry-policy", "base=0.1"], ["--schedule", "fifo"],
            ["--backend", "dispatch"], ["--hosts", "local:2"],
        ],
        ids=["backoff-key", "schedule", "dispatch-backend", "hosts"],
    )
    def test_deleted_knobs_are_usage_errors(self, flags):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig1", *flags])
        assert exit_info.value.code == 2


class TestFailedPointsExitNonzero:
    """A sweep that lost points must not look like a clean one."""

    @pytest.mark.parametrize(
        "backend_flags",
        [["--backend", "serial"], ["--backend", "process", "--jobs", "2"]],
        ids=["serial", "process"],
    )
    def test_failed_point_exits_one_and_is_named_on_stderr(
        self, backend_flags, monkeypatch, capsys
    ):
        TestDispatchCli._register_poison(
            monkeypatch, n_points=3, labels=("p1",)
        )
        argv = [
            "toypoison", "--preset", "quick", "--no-cache", "--no-checkpoint",
            *backend_flags,
        ]
        with pytest.warns(RuntimeWarning, match="failed"):
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "FAILED sweep_toys:POISON/p1" in err
        assert "kind=deterministic" in err
        assert "attempts=2" in err
        assert "ValueError: poison p1" in err


class TestReportPartial:
    """The interrupted-sweep fallback must never hide surviving data."""

    class _ChokingExperiment:
        id = "choker"

        def report(self, params, payload):
            raise KeyError("partial payload has holes")

    def test_failed_report_dumps_payload_to_stderr(self, capsys):
        exp = self._ChokingExperiment()
        cli._report_partial([(exp, None)], [{"salvaged": 41}])
        err = capsys.readouterr().err
        # The error class and the raw payload both surface: an operator
        # who interrupted a long sweep can still recover the results.
        assert "KeyError" in err
        assert "choker" in err
        assert "{'salvaged': 41}" in err

    def test_none_payload_skipped_silently(self, capsys):
        exp = self._ChokingExperiment()
        cli._report_partial([(exp, None)], [None])
        assert capsys.readouterr().err == ""
