"""Figure 5 — TCP's concurrency impairment.

ACT, and min/max completion times, of synchronized 10-packet SPTs
bursting into a bottleneck occupied by 0/1/2 long trains (RTO 200 ms).
The paper: ACT rises with the LPT count and becomes "unacceptably high"
with 2 LPTs; the worst SPT suffers two timeouts beyond 6 SPTs.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.concurrency import ConcurrencyParams, run_concurrency_sweep


def test_fig05_tcp_concurrency():
    def sweep():
        results = {}
        for n_lpts in (0, 1, 2):
            params = ConcurrencyParams.quick("reno", n_lpts=n_lpts, deadline=3.0)
            results[n_lpts] = run_concurrency_sweep(params)
        return results

    results = sweep()

    header("Fig. 5(a): ACT of concurrent SPTs under TCP Reno")
    for n_lpts, cases in results.items():
        for case in cases:
            row(f"lpts={n_lpts}  n_spt={case.n_spts:3d}  "
                f"ACT={case.act * MS:9.2f} ms  min={case.min_ct * MS:7.2f}  "
                f"max={case.max_ct * MS:9.2f}  spt_timeouts={case.spt_timeouts}")

    def act_at_max_spts(n_lpts):
        return results[n_lpts][-1].act

    # Shape: more LPTs => dramatically worse SPT completion.
    assert act_at_max_spts(2) > act_at_max_spts(0) * 5
    # With 2 LPTs and many SPTs, RTOs dominate (hundreds of ms).
    assert act_at_max_spts(2) > 0.05
    assert results[2][-1].spt_timeouts > 0
