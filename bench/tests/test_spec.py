"""``BENCHMARK.json`` agrees with ``bench.spec`` and with the driver's limits."""

import json
import re

from bench import ROOT
from bench.cli import main
from bench.spec import END_TO_END, PER_LAYER, benchmark_document

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_document()


def test_list_prints_the_same_document(capsys):
    assert main(["list"], 0.0) == 0
    assert json.loads(capsys.readouterr().out) == benchmark_document()


def test_document_is_within_the_drivers_limits():
    doc = benchmark_document()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(json.dumps(doc)) < 64 * 1024


def test_setup_time_is_an_end_to_end_metric_with_the_largest_bound():
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_every_layer_reports_self_time():
    from bench.spec import LAYERS

    names = {m.name for m in PER_LAYER}
    assert {f"{layer}.self_s" for layer in LAYERS} <= names
