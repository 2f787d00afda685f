"""``python3 -m bench compare A.json B.json``: judge B against base A.

Every workload x end-to-end metric gets its own row and its own verdict
against the bound the benchmark fixed; nothing is folded into a score.

* ``worse``      — B's median is worse than A's by more than the bound.
* ``unresolved`` — not worse, but the spread between samples (IQR over
  median, of either side) is wider than the bound, so "unchanged" cannot
  be claimed — unless every sample of B reads better than every sample
  of A, which is ``ok``.
* ``ok``         — neither.

A row is also ``worse`` when the two sides cannot be compared or a
side is broken: a workload that only one file holds (its ``measure``
crashed), a side whose own checks failed (``correct`` is false), a
different ``workload_digest``, or untraced runs of different length.

Counts are exact for a seed: when both sides report the same
``sim_fingerprint`` every counter must match to the digit, and a
mismatch is ``worse``.  When the fingerprints differ the behaviour
changed; counts are then not compared, and ``pkt_hops_per_s`` is the
fair speed number, ``wall_s`` is not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from bench.spec import END_TO_END, Metric

__all__ = ["Row", "compare_documents", "compare_files", "verdict"]

OK, WORSE, UNRESOLVED = "ok", "worse", "unresolved"


def verdict(
    metric: Metric,
    base: float,
    change: float,
    base_samples: Sequence[float] = (),
    change_samples: Sequence[float] = (),
    base_iqr: float = 0.0,
    change_iqr: float = 0.0,
) -> str:
    """The verdict for one metric on one workload (see module docstring)."""
    if metric.bound is None:
        raise ValueError(f"{metric.name} has no bound: not an end-to-end metric")
    lower = metric.better == "lower"
    worse_by = (change - base) / base if lower else (base - change) / base
    if worse_by > metric.bound:
        return WORSE
    spread = max(base_iqr / base, change_iqr / change)
    if spread <= metric.bound:
        return OK
    if base_samples and change_samples:
        if lower and max(change_samples) < min(base_samples):
            return OK
        if not lower and min(change_samples) > max(base_samples):
            return OK
    return UNRESOLVED


@dataclass
class Row:
    """One line of the comparison table."""

    workload: str
    metric: str
    unit: str
    base: float
    change: float
    verdict: str
    note: str = ""

    def render(self) -> str:
        ratio = f"x{self.change / self.base:.4f} of base" if self.base else ""
        return (
            f"{self.workload:18s} {self.metric:20s} {self.base:13.6g} -> "
            f"{self.change:13.6g} {self.unit:6s} {ratio:17s} "
            f"{self.verdict:10s} {self.note}"
        )


def _samples(detail: dict[str, Any], name: str) -> list[float]:
    samples = detail.get("samples", {})
    if name in samples:
        return list(samples[name])
    if name == "pkt_hops_per_s" and "wall_s" in samples:
        hops = detail["counts"].get("net.pkt_hops", 0)
        return [hops / wall for wall in samples["wall_s"]]
    return []


def _iqr(m: dict[str, Any]) -> float:
    return float(m["q3"] - m["q1"]) if "q1" in m else 0.0


def _compare_workload(name: str, base: dict[str, Any],
                      change: dict[str, Any]) -> list[Row]:
    rows: list[Row] = []
    if base["workload_digest"] != change["workload_digest"]:
        return [Row(name, "workload_digest", "", 0.0, 0.0, WORSE,
                    "the workload itself differs: not comparable")]
    if base.get("seconds") != change.get("seconds"):
        return [Row(name, "seconds", "s", base.get("seconds") or 0.0,
                    change.get("seconds") or 0.0, WORSE,
                    "the runs differ in length: not comparable")]
    for side, detail in (("base", base), ("change", change)):
        if not detail["correct"]:
            failed = [c["name"] for c in detail.get("checks", ()) if not c["ok"]]
            rows.append(Row(name, "correct", "", 0.0, 0.0, WORSE,
                            f"{side} failed its own checks: "
                            f"{', '.join(failed) or 'unnamed'}"))
    same_work = (
        base["sim_fingerprint"]["sha256"] == change["sim_fingerprint"]["sha256"]
    )
    if base.get("trace") == 0 and change.get("trace") == 0:
        for metric in END_TO_END:
            a, b = base["metrics"][metric.name], change["metrics"][metric.name]
            outcome = verdict(
                metric, a["value"], b["value"],
                _samples(base, metric.name), _samples(change, metric.name),
                _iqr(a), _iqr(b),
            )
            note = f"bound {metric.bound:.0%}"
            if "q1" in a:
                note += (f"; base q1..q3 {a['q1']:.5g}..{a['q3']:.5g} (n={a['n']}),"
                         f" change {b['q1']:.5g}..{b['q3']:.5g} (n={b['n']})")
            rows.append(Row(name, metric.name, metric.unit, a["value"],
                            b["value"], outcome, note))
        rows.append(Row(
            name, "failed_share", "ratio", base["failed_share"],
            change["failed_share"],
            WORSE if change["failed_share"] > base["failed_share"] else OK,
            "bound 0 (absolute)",
        ))
    if not same_work:
        rows.append(Row(
            name, "sim_fingerprint", "", 0.0, 0.0, OK,
            "differs: behaviour changed, counts not compared; "
            "pkt_hops_per_s is the fair speed number, wall_s is not",
        ))
        return rows
    for key in sorted(set(base["counts"]) | set(change["counts"])):
        a_count = base["counts"].get(key)
        b_count = change["counts"].get(key)
        if a_count != b_count:
            rows.append(Row(name, key, "count", a_count or 0, b_count or 0, WORSE,
                            "same sim_fingerprint, so counts must match exactly"))
    return rows


def compare_documents(base: dict[str, Any],
                      change: dict[str, Any]) -> tuple[list[Row], Optional[str]]:
    """Rows for every workload either document holds, and an error if
    the documents cannot be compared at all."""
    names = list(base["workloads"])
    names += [w for w in change["workloads"] if w not in base["workloads"]]
    if not any(w in base["workloads"] and w in change["workloads"] for w in names):
        return [], "the two files share no workload"
    rows: list[Row] = []
    for name in names:
        for side, document in (("base", base), ("change", change)):
            if name not in document["workloads"]:
                rows.append(Row(name, "workload", "", 0.0, 0.0, WORSE,
                                f"missing from {side}: its run gave no result"))
        if name in base["workloads"] and name in change["workloads"]:
            rows += _compare_workload(name, base["workloads"][name],
                                      change["workloads"][name])
    return rows, None


def compare_files(base_path: Path, change_path: Path) -> int:
    base = json.loads(base_path.read_text())
    change = json.loads(change_path.read_text())
    rows, error = compare_documents(base, change)
    if error is not None:
        print(f"bench compare: {error}")
        return 2
    print(f"base   {base_path} (git {base.get('git_rev')}, seed {base.get('seed')})")
    print(f"change {change_path} (git {change.get('git_rev')}, "
          f"seed {change.get('seed')})")
    if base.get("seed") != change.get("seed"):
        print("note: the seeds differ, so the simulated work does too: "
              "fingerprints and counts will not match")
    for row in rows:
        print(row.render())
    tally = {v: sum(r.verdict == v for r in rows) for v in (OK, WORSE, UNRESOLVED)}
    print(f"{tally[OK]} ok, {tally[WORSE]} worse, {tally[UNRESOLVED]} unresolved")
    return 1 if tally[WORSE] else 0
