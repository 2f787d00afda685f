"""Figure 10 — convergence and fairness of staggered long trains.

Five flows start 2 s apart and stop 2 s apart; the receiver link is the
single bottleneck.  The paper: TCP-TRIM converges quickly to the fair
share at every arrival/departure; TCP is fair only on average, with
large variation.  The quick preset compresses time and rate 10×.
"""

from benchmarks.paperbench import header, row
from repro.experiments.fairness import FairnessParams, run_fairness


def test_fig10_fairness():
    def both():
        return {
            protocol: run_fairness(FairnessParams.quick(protocol))
            for protocol in ("reno", "trim")
        }

    results = both()

    header("Fig. 10: all-flows-active plateau (shares in Mbps)")
    for protocol, result in results.items():
        shares = " ".join(f"{s / 1e6:6.1f}" for s in result.plateau_shares)
        row(f"{protocol:5s}  shares=[{shares}]  Jain={result.plateau_fairness:.4f}  "
            f"timeouts={result.timeouts}")

    trim = results["trim"]
    reno = results["reno"]
    assert trim.plateau_fairness > 0.99  # converges to fair share
    assert trim.plateau_fairness >= reno.plateau_fairness
    assert trim.timeouts == 0
    # The five TRIM flows together saturate the bottleneck.
    assert sum(trim.plateau_shares) > 0.9 * 1e8
