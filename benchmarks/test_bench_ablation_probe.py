"""Ablation — the probe mechanism versus its alternatives.

Four window-inheritance policies on the motivation scenario:

* ``reno``:  blind inheritance (the paper's problem statement);
* ``vegas``: delay-based congestion avoidance *without* probing (related
  work [21]) — shows delay sensitivity alone does not fix inheritance;
* ``gip``:   restart at 2 on every train (related work [13] — safe but
  conservative; the paper argues it underutilizes ample capacity);
* ``trim``:  probe-then-tune (the contribution).

TRIM should match GIP's safety (no timeouts) while finishing the long
trains no slower — the probe reclaims capacity GIP gives up.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.motivation import MotivationParams, run_motivation

PROTOCOLS = ("reno", "vegas", "gip", "trim")


def test_ablation_probe_mechanism():
    def sweep():
        return {
            p: run_motivation(MotivationParams.quick(p)) for p in PROTOCOLS
        }

    results = sweep()

    header("Ablation: window-inheritance policy on the motivation scenario")
    for protocol, r in results.items():
        mean_lpt = sum(r.lpt_completion_times) / len(r.lpt_completion_times)
        row(f"{protocol:5s}  timeouts={r.total_timeouts:2d}  "
            f"drops={r.dropped_packets:5d}  mean LPT ct={mean_lpt * MS:7.1f} ms  "
            f"done@{r.all_done_time:6.3f} s")

    trim, gip, reno = results["trim"], results["gip"], results["reno"]
    vegas = results["vegas"]
    assert trim.total_timeouts == 0
    assert trim.total_timeouts <= gip.total_timeouts
    assert trim.all_done_time < reno.all_done_time
    assert trim.all_done_time <= gip.all_done_time * 1.05
    # Delay-based CC without the probe still drops on inheritance.
    assert vegas.dropped_packets > 0
    assert trim.all_done_time < vegas.all_done_time
