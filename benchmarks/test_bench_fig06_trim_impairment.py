"""Figure 6 — TCP-TRIM on the impairment scenario.

The paper observes: a single throughput spike at 0.5 s, no timeouts,
the queue never exceeds ~20 packets, every window stays small before
0.5 s, plummets to 2 at the long train, is re-inherited via the probe,
and every transfer completes before 0.6 s.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.motivation import MotivationParams, run_motivation


def test_fig06_trim_impairment():
    result = run_motivation(MotivationParams.quick("trim"))

    header("Fig. 6: TCP-TRIM on the motivation scenario")
    row(f"timeouts per connection: {result.timeouts_per_connection} (paper: none)")
    row(f"dropped packets: {result.dropped_packets} (paper: none)")
    row(f"peak queue: {result.peak_queue_pkts:.0f} pkts (paper: < 20)")
    row(f"inherited cwnd at 0.5 s: {[round(c) for c in result.inherited_cwnd]} "
        f"(windows held small by delay control)")
    row(f"LPT completion times (ms): "
        f"{[round(t * MS, 1) for t in result.lpt_completion_times]}")
    row(f"all transfers done at t = {result.all_done_time:.3f} s (paper: < 0.6 s)")

    assert result.total_timeouts == 0
    assert result.dropped_packets == 0
    assert result.peak_queue_pkts <= 25
    assert result.all_done_time < 0.65
