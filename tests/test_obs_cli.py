"""The ``--trace`` CLI plumbing and the ``trace`` report subcommand.

End-to-end over the real experiments CLI: ``--trace SPEC`` must produce
one schema-valid, canonical JSONL file per executed sweep point in the
``--trace-out`` directory, and ``python -m repro.experiments trace``
must render and validate those files.
"""

from __future__ import annotations

import pytest

from repro.experiments import __main__ as cli
from repro.obs import capture, check_jsonl, load_jsonl


@pytest.fixture(autouse=True)
def clean_capture(monkeypatch):
    """The CLI writes REPRO_TRACE* into os.environ; keep tests isolated.
    Set to empty (= off), not deleted: deleting an absent variable records
    nothing to undo, and the CLI's write then leaks into every later test."""
    monkeypatch.setenv(capture.ENV_SPEC, "")
    monkeypatch.setenv(capture.ENV_OUT, "")
    capture.discard_active()
    yield
    capture.discard_active()


class TestTraceArguments:
    def test_trace_out_requires_trace(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["fig4", "--trace-out", str(tmp_path)])

    def test_bad_trace_spec_rejected_before_running(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig4", "--trace", "cwmd"])
        err = capsys.readouterr().err
        assert "unknown trace channel" in err


class TestTraceExecution:
    @pytest.fixture()
    def traced_run(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert (
            cli.main(
                [
                    "fig4",
                    "--protocols",
                    "trim",
                    "--no-cache",
                    "--trace",
                    "cwnd,probe,queue",
                    "--trace-out",
                    str(out_dir),
                ]
            )
            == 0
        )
        return out_dir, capsys.readouterr().out

    def test_writes_one_valid_jsonl_per_point(self, traced_run):
        out_dir, stdout = traced_run
        files = sorted(out_dir.glob("*.jsonl"))
        assert files, "no trace files written"
        for path in files:
            assert path.name.startswith("fig4-")
            assert check_jsonl(path) > 0
        assert "traces written to" in stdout

    def test_trace_rows_cover_requested_channels(self, traced_run):
        out_dir, _ = traced_run
        rows = [row for f in out_dir.glob("*.jsonl") for row in load_jsonl(f)]
        channels = {row["ch"] for row in rows}
        assert {"cwnd", "probe", "queue"} <= channels
        # The spec is also a filter: nothing beyond what was asked for.
        assert channels <= {"cwnd", "probe", "queue"}


class TestTraceReport:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        cli.main(
            [
                "fig4",
                "--protocols",
                "trim",
                "--no-cache",
                "--trace",
                "cwnd,probe,queue",
                "--trace-out",
                str(out_dir),
            ]
        )
        capsys.readouterr()  # drop the sweep output
        return sorted(out_dir.glob("*.jsonl"))[0]

    def test_render_prints_summary_and_staircase(self, trace_file, capsys):
        assert cli.main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert f"== {trace_file}" in out
        assert "records:" in out
        assert "cwnd over" in out
        assert "#" in out  # some staircase ink

    def test_check_ok(self, trace_file, capsys):
        assert cli.main(["trace", "--check", str(trace_file)]) == 0
        assert "ok " in capsys.readouterr().out

    def test_check_fails_on_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ch": "cwnd", "t": 0.1}\n')
        assert cli.main(["trace", "--check", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_render_without_cwnd_channel_degrades_gracefully(
        self, tmp_path, capsys
    ):
        only_queue = tmp_path / "q.jsonl"
        only_queue.write_text(
            '{"backlog":2,"ch":"queue","kind":"sample","link":"L","t":0.1}\n'
        )
        assert cli.main(["trace", str(only_queue)]) == 0
        out = capsys.readouterr().out
        assert "no staircase" in out
        assert "queue L: peak backlog 2" in out
