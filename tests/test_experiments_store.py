"""Tests for the results artifact store."""

import json

import numpy as np
import pytest

from repro.experiments.concurrency import ConcurrencyCase
from repro.experiments.store import load_results, save_results, to_jsonable
from repro.sim.monitor import TimeSeries


class TestToJsonable:
    def test_scalars_pass_through(self):
        assert to_jsonable(3) == 3
        assert to_jsonable(2.5) == 2.5
        assert to_jsonable("x") == "x"
        assert to_jsonable(True) is True
        assert to_jsonable(None) is None

    def test_non_finite_floats_become_null(self):
        assert to_jsonable(float("nan")) is None
        assert to_jsonable(float("inf")) is None

    def test_numpy_types(self):
        assert to_jsonable(np.int64(7)) == 7
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_time_series(self):
        ts = TimeSeries("queue")
        ts.record(0.0, 1.0)
        out = to_jsonable(ts)
        assert out == {"name": "queue", "times": [0.0], "values": [1.0]}

    def test_dataclass(self):
        case = ConcurrencyCase(
            n_spts=3, n_lpts=1, act=0.1, min_ct=0.05, max_ct=0.2,
            completed=3, spt_timeouts=0, dropped_packets=4,
        )
        out = to_jsonable(case)
        assert out["n_spts"] == 3
        assert out["dropped_packets"] == 4

    def test_nested_containers(self):
        out = to_jsonable({"a": [(1, 2.0)], "b": {3}})
        assert out == {"a": [[1, 2.0]], "b": [3]}

    def test_result_is_json_dumpable(self):
        payload = {"series": TimeSeries(), "nan": float("nan")}
        json.dumps(to_jsonable(payload))


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        path = save_results(
            tmp_path / "r.json", "fig9", {"x": 1.0}, preset="quick", seed=7
        )
        doc = load_results(path)
        assert doc["experiment"] == "fig9"
        assert doc["preset"] == "quick"
        assert doc["seed"] == 7
        assert doc["results"] == {"x": 1.0}
        assert doc["repro_version"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            load_results(path)


class TestCliOutput:
    def test_cli_writes_artifact(self, tmp_path, capsys):
        from repro.experiments import __main__ as cli

        out = tmp_path / "fig2.json"
        assert cli.main(["fig2", "--output", str(out)]) == 0
        doc = load_results(out)
        assert doc["experiment"] == "fig2"
        assert "fig2" in doc["results"]
