"""Figure 7 — TCP-TRIM under concurrent HTTP connections (2 LPTs).

The paper: TRIM's SPT ACT is a few milliseconds in every case, while
TCP's is up to two orders of magnitude higher (except the single-SPT
case); TRIM's delay-based back-off keeps buffer headroom to absorb the
burst, avoiding loss and RTOs.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.concurrency import ConcurrencyParams, run_concurrency_sweep


def test_fig07_trim_concurrency():
    def sweep():
        out = {}
        for protocol in ("reno", "trim"):
            params = ConcurrencyParams.quick(protocol, n_lpts=2, deadline=3.0)
            out[protocol] = run_concurrency_sweep(params)
        return out

    results = sweep()

    header("Fig. 7: ACT of SPTs with 2 LPTs — TCP vs TCP-TRIM")
    for n_idx in range(len(results["reno"])):
        reno = results["reno"][n_idx]
        trim = results["trim"][n_idx]
        ratio = reno.act / trim.act
        row(f"n_spt={reno.n_spts:3d}  TCP={reno.act * MS:9.2f} ms  "
            f"TRIM={trim.act * MS:6.2f} ms  ratio={ratio:6.1f}x")

    for trim_case in results["trim"]:
        assert trim_case.act < 0.01  # a few milliseconds
        assert trim_case.spt_timeouts == 0
        assert trim_case.dropped_packets == 0
    # Two orders of magnitude at high concurrency.
    assert results["reno"][-1].act / results["trim"][-1].act > 20
