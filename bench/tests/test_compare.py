"""``compare`` verdicts on synthetic inputs."""

import copy
import json

from bench.compare import compare_documents, compare_files, verdict
from bench.spec import END_TO_END

WALL = next(m for m in END_TO_END if m.name == "wall_s")
RATE = next(m for m in END_TO_END if m.name == "pkt_hops_per_s")


def _detail(wall=(5.0, 5.1, 5.2, 5.05), events=2000, hops=1000, sha="a" * 64):
    walls = sorted(wall)
    median = (walls[1] + walls[2]) / 2
    spread = dict(q1=walls[0], q3=walls[-1], n=len(walls))
    return {
        "workload": "fanin_tree", "trace": 0, "workload_digest": "d" * 64,
        "seconds": 20, "correct": True, "checks": [],
        "failed": 0, "attempted": 10, "failed_share": 0.0,
        "metrics": {
            "wall_s": {"value": median, "unit": "s", **spread},
            "pkt_hops_per_s": {
                "value": hops / median, "unit": "1/s",
                "q1": hops / walls[-1], "q3": hops / walls[0], "n": len(walls),
            },
            "events_per_pkt_hop": {"value": events / hops, "unit": "ratio"},
            "peak_rss_mb": {"value": 46.0, "unit": "MB"},
            "setup_s": {"value": 0.4, "unit": "s", "q1": 0.39, "q3": 0.41, "n": 5},
        },
        "samples": {"wall_s": list(wall), "setup_s": [0.39, 0.4, 0.4, 0.41, 0.4]},
        "counts": {"sim.events": events, "net.pkt_hops": hops},
        "sim_fingerprint": {"sha256": sha, "key": {}},
    }


def _doc(detail):
    return {"schema": "bench-results/1", "seed": 1, "git_rev": None,
            "workloads": {"fanin_tree": detail}}


def _verdicts(rows):
    return {row.metric: row.verdict for row in rows}


def test_verdict_lower_and_higher_is_better():
    assert verdict(WALL, 10.0, 10.0 * (1 + WALL.bound) + 0.1) == "worse"
    assert verdict(WALL, 10.0, 10.0 * (1 + WALL.bound) - 0.1) == "ok"
    assert verdict(WALL, 10.0, 5.0) == "ok"
    assert verdict(RATE, 100.0, 100.0 * (1 - RATE.bound) - 1) == "worse"
    assert verdict(RATE, 100.0, 200.0) == "ok"


def test_wide_spread_is_unresolved_unless_every_sample_is_better():
    wide = 10.0 * WALL.bound * 1.5
    assert verdict(WALL, 10.0, 10.1, base_iqr=wide) == "unresolved"
    assert verdict(WALL, 10.0, 10.1, change_iqr=wide * 1.01) == "unresolved"
    assert verdict(WALL, 10.0, 6.0, [9.0, 10.0, 14.0], [5.0, 6.0, 7.0],
                   base_iqr=wide) == "ok"
    assert verdict(WALL, 10.0, 9.5, [9.0, 10.0, 14.0], [9.2, 9.5, 9.9],
                   base_iqr=wide) == "unresolved"
    # worse beats unresolved: the median moved past the bound
    assert verdict(WALL, 10.0, 20.0, base_iqr=wide) == "worse"


def test_same_run_twice_is_all_ok():
    rows, error = compare_documents(_doc(_detail()), _doc(_detail()))
    assert error is None
    assert set(_verdicts(rows).values()) == {"ok"}
    assert {m.name for m in END_TO_END} | {"failed_share"} <= set(_verdicts(rows))


def test_counts_must_match_exactly_under_one_fingerprint():
    rows, _ = compare_documents(_doc(_detail()), _doc(_detail(events=2001)))
    verdicts = _verdicts(rows)
    assert verdicts["sim.events"] == "worse"
    assert verdicts["wall_s"] == "ok"


def test_counts_are_not_compared_when_behaviour_changed():
    change = _detail(events=1000, sha="b" * 64)
    rows, _ = compare_documents(_doc(_detail()), _doc(change))
    verdicts = _verdicts(rows)
    assert "sim.events" not in verdicts
    assert verdicts["sim_fingerprint"] == "ok"


def test_a_failed_operation_is_worse_whatever_the_speed():
    change = _detail()
    change.update(failed=1, failed_share=0.1)
    rows, _ = compare_documents(_doc(_detail()), _doc(change))
    assert _verdicts(rows)["failed_share"] == "worse"


def test_a_different_workload_is_not_comparable():
    change = copy.deepcopy(_detail())
    change["workload_digest"] = "e" * 64
    rows, _ = compare_documents(_doc(_detail()), _doc(change))
    assert [row.verdict for row in rows] == ["worse"]


def test_runs_of_different_length_are_not_comparable():
    change = _detail()
    change["seconds"] = 5
    rows, _ = compare_documents(_doc(_detail()), _doc(change))
    assert [(row.metric, row.verdict) for row in rows] == [("seconds", "worse")]


def test_a_workload_missing_from_either_side_is_worse():
    both = _doc(_detail())
    both["workloads"]["fattree_forward"] = _detail()
    for base, change, side in ((both, _doc(_detail()), "change"),
                               (_doc(_detail()), both, "base")):
        rows, error = compare_documents(base, change)
        assert error is None
        missing = [r for r in rows if r.workload == "fattree_forward"]
        assert [(r.metric, r.verdict) for r in missing] == [("workload", "worse")]
        assert side in missing[0].note
        assert {r.verdict for r in rows if r.workload == "fanin_tree"} == {"ok"}


def test_a_side_that_failed_its_own_checks_is_worse():
    broken = _detail()
    broken.update(correct=False, checks=[
        {"name": "queue_conservation", "ok": False, "detail": ["q0: 3 != 2"]},
        {"name": "iterations_repeat", "ok": True, "detail": []},
    ])
    for base, change in ((_detail(), broken), (broken, _detail())):
        rows, _ = compare_documents(_doc(base), _doc(change))
        row = next(r for r in rows if r.metric == "correct")
        assert row.verdict == "worse"
        assert "queue_conservation" in row.note
        assert "iterations_repeat" not in row.note


def test_exit_code_is_non_zero_only_on_worse(tmp_path, capsys):
    base, same, slow = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    base.write_text(json.dumps(_doc(_detail())))
    same.write_text(json.dumps(_doc(_detail())))
    slow.write_text(json.dumps(_doc(_detail(wall=(9.0, 9.1, 9.2, 9.05)))))
    assert compare_files(base, same) == 0
    assert compare_files(base, slow) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "of base" in out
    crashed = tmp_path / "e.json"
    crashed.write_text(json.dumps({"workloads": {"fattree_forward": _detail()}}))
    assert compare_files(base, crashed) == 2
    empty = tmp_path / "d.json"
    empty.write_text(json.dumps({"workloads": {}}))
    assert compare_files(base, empty) == 2
