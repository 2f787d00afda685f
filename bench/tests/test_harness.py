"""End-to-end smokes of ``measure`` and the ``run`` driver."""

import dataclasses
import json
import re
import subprocess
import time

import pytest

from bench import cli, harness
from bench.spec import END_TO_END, PER_LAYER, RUN_SECONDS
from bench.workloads import by_name

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _tiny(pool_jobs=None):
    """sweep_points cut to four fan-ins: same code paths, milliseconds."""
    workload = by_name("sweep_points")
    params = dict(workload.params, sender_counts=(2, 3, 4, 5))
    return dataclasses.replace(workload, params=params, pool_jobs=pool_jobs)


def test_sweep_points_smoke_cold_warm_resume_serial_agree():
    detail = harness.measure(
        by_name("sweep_points"), seed=1, seconds=0.001,
        t0=time.perf_counter(), probes=1,
    )
    assert detail["iterations"] == 1
    assert detail["correct"], detail["checks"]
    # one check covers cold = warm = resume = serial, 192 cache hits and
    # 192 resumed points; it has to have run, not just be absent
    assert {c["name"] for c in detail["checks"]} >= {
        "iteration_checks", "iterations_repeat", "queue_conservation",
    }
    assert detail["failed_share"] == 0 and detail["failed"] == 0
    assert detail["attempted"] == 2 * sum(range(2, 98))
    assert detail["harness"]["points"] == 192
    assert set(detail["samples"]) >= {"wall_s", "setup_s", "cold_s", "warm_s",
                                      "resume_s"}
    hops, events = detail["counts"]["net.pkt_hops"], detail["counts"]["sim.events"]
    assert detail["metrics"]["events_per_pkt_hop"]["value"] == events / hops


def test_results_shape_and_metric_names():
    detail = harness.measure(_tiny(), 1, 0.05, time.perf_counter(), probes=0)
    assert detail["iterations"] >= 2
    assert set(detail["metrics"]) == {m.name for m in END_TO_END}
    for name, metric in detail["metrics"].items():
        assert METRIC_NAME.match(name)
        assert metric["value"] > 0 and metric["unit"]
    for name in ("wall_s", "setup_s", "pkt_hops_per_s"):
        metric = detail["metrics"][name]
        assert metric["q1"] <= metric["value"] <= metric["q3"]
        samples = detail["samples"]
        assert metric["n"] == len(samples.get(name, samples["wall_s"]))
    for key in ("workload_digest", "sim_fingerprint", "noisy", "loadavg_start",
                "loadavg_end", "environment", "counts", "checks"):
        assert key in detail
    assert len(detail["samples"]["wall_s"]) == detail["iterations"]
    assert detail["environment"]["nproc"] >= 1
    json.dumps(detail)  # the whole document is plain JSON


def test_pool_passes_catch_a_wrong_reference():
    prep = harness.prepare(_tiny(pool_jobs=2))
    try:
        with harness.Observer() as observer:
            run = harness._Run(prep, 1, observer)
            reference = run.serial_pass()
            good = run.pool_passes(reference.fingerprint)
            bad = run.pool_passes("0" * 64)
    finally:
        harness.shutil.rmtree(prep.tmp, ignore_errors=True)
    assert good.problems == []
    assert good.fingerprint == reference.fingerprint
    assert good.runner["cache_hits"] == good.runner["resumed"] == prep.n_points
    assert len(bad.problems) == 3  # cold, warm and resume all differ


def test_traced_run_reports_every_layer_metric_and_does_not_perturb():
    detail = harness.measure_traced(_tiny(pool_jobs=2), seed=1)
    assert detail["correct"], detail["checks"]
    assert set(detail["metrics"]) == {m.name for m in PER_LAYER}
    values = {k: m["value"] for k, m in detail["metrics"].items()}
    assert values["sim.self_s"] > 0 and values["runner.self_s"] > 0
    assert values["net.pkt_hops"] == detail["counts"]["net.pkt_hops"]
    assert values["runner.cache_hits"] == values["runner.resumed"] == 8
    assert values["experiments.points"] == 8
    assert values["obs.self_s"] == values["faults.self_s"] == 0
    assert values["trace.overhead_x"] > 1
    trace = json.loads((harness.ROOT / detail["trace_file"]).read_text())
    names = {span["name"] for span in trace["spans"]}
    assert names >= {"iteration", "point", "build", "run", "reduce", "cold",
                     "warm", "resume", "run_many"}
    by_id = {span["id"]: span for span in trace["spans"]}
    for span in trace["spans"]:
        if span["name"] in ("build", "run", "collect"):
            assert by_id[span["parent"]]["name"] == "point"
        assert span["end"] >= span["start"]


def test_fingerprint_mismatch_fails_measure(monkeypatch, capsys):
    real = harness.measure
    seen = []

    def _flaky(run, reference):
        iteration = harness._Run.iteration(run, reference)
        seen.append(iteration)
        if len(seen) > 1:
            iteration.fingerprint = "0" * 64
        return iteration

    monkeypatch.setattr(cli, "by_name", lambda name: _tiny())
    monkeypatch.setattr(
        harness, "measure",
        lambda w, seed, seconds, t0: real(w, seed, seconds, t0, probes=0,
                                          iterate=_flaky),
    )
    code = cli.main(["measure", "--workload", "sweep_points", "--seconds", "0.05"],
                    time.perf_counter())
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert "iterations_repeat" in captured.err


def test_run_exits_non_zero_when_a_workload_is_incorrect(monkeypatch, tmp_path,
                                                         capsys):
    detail = harness.measure(_tiny(), 1, 0.01, time.perf_counter(), probes=0)

    def fake_measure(command, **kwargs):
        name = command[command.index("--workload") + 1]
        path = command[command.index("--detail") + 1]
        wrong = name == "fattree_forward"
        doc = dict(detail, workload=name, correct=not wrong)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return subprocess.CompletedProcess(command, 1 if wrong else 0)

    monkeypatch.setattr(cli, "_git_rev", lambda: "test")
    monkeypatch.setattr(cli.subprocess, "run", fake_measure)
    out = tmp_path / "run.json"
    assert cli.main(["run", "--out", str(out)], 0.0) == 1
    document = json.loads(out.read_text())
    assert document["schema"] == cli.RESULTS_SCHEMA
    assert list(document["workloads"]) == [w.name for w in cli.WORKLOADS]
    printed = capsys.readouterr().out
    for metric in END_TO_END:
        assert re.search(rf"fanin_tree\s+{re.escape(metric.name)}\s+\S+ {metric.unit}",
                         printed)
    assert "failed_share" in printed

    assert document["seconds"] == RUN_SECONDS
    for command_name in ("run", "trace"):  # fixed length, every workload
        with pytest.raises(SystemExit):
            cli.main([command_name, "--seconds", "5"], 0.0)
        with pytest.raises(SystemExit):
            cli.main([command_name, "--workload", "fanin_tree"], 0.0)

    def all_correct(command, **kwargs):
        path = command[command.index("--detail") + 1]
        assert command[command.index("--seconds") + 1] == str(RUN_SECONDS)
        with open(path, "w") as fh:
            json.dump(detail, fh)
        return subprocess.CompletedProcess(command, 0)

    monkeypatch.setattr(cli.subprocess, "run", all_correct)
    assert cli.main(["run", "--out", str(out)], 0.0) == 0


def test_measure_refuses_an_unknown_workload():
    with pytest.raises(SystemExit):
        cli.main(["measure", "--workload", "nope"], 0.0)
