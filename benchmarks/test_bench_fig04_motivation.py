"""Figure 4 — TCP Reno's throughput collapse under window inheritance.

The paper traces connection 5 of the five-server motivation scenario:
the congestion window reaches ~900 segments by 0.3 s, is inherited into
the 0.5 s long train, and the resulting burst causes two timeouts
(~0.5 s and ~0.7 s) and throughput collapse.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.motivation import MotivationParams, run_motivation


def test_fig04_reno_collapse():
    result = run_motivation(MotivationParams.quick("reno"))

    header("Fig. 4: TCP Reno on the motivation scenario")
    row(f"inherited cwnd at 0.5 s: {[round(c) for c in result.inherited_cwnd]} "
        f"(paper: >850 each)")
    row(f"timeouts per connection: {result.timeouts_per_connection} "
        f"(paper: 0/1/2/2/2)")
    row(f"dropped packets: {result.dropped_packets}")
    row(f"LPT completion times (ms): "
        f"{[round(t * MS, 1) for t in result.lpt_completion_times]}")
    row(f"all transfers done at t = {result.all_done_time:.3f} s "
        f"(RTO recovery pushes past 0.7 s, as in Fig. 4a)")

    # Shape: huge inherited windows, several timeouts, late completion.
    assert max(result.inherited_cwnd) > 200
    assert result.total_timeouts >= 4
    assert result.all_done_time > 0.7
