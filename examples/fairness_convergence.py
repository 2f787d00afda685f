#!/usr/bin/env python
"""Convergence to fair share as flows come and go (Fig. 10).

Five long transfers towards one receiver start one after another, then
stop one after another.  The example prints an ASCII strip chart of
per-flow throughput so the convergence behaviour is visible in a
terminal: TCP-TRIM's flows settle onto the fair share at every
arrival/departure epoch, while TCP wanders.

Run:  python examples/fairness_convergence.py [--protocol trim]
"""

import argparse

from repro.experiments.fairness import FairnessParams, run_fairness
from repro.metrics import jain_fairness, strip_chart

ROWS = 40


def print_chart(result, params) -> None:
    """The library strip chart, one row per time slice, with the Jain
    index of the flows' mean rates in that slice appended."""
    series = result.flow_series
    chart = strip_chart(
        series, peak=params.bottleneck_bps, rows=ROWS, width=62, glyphs="12345"
    )
    # strip_chart cuts [first sample, last sample] into ROWS equal
    # slices; the Jain column is computed over the same slices.
    t0 = min(s.times[0] for s in series)
    step = (max(s.times[-1] for s in series) - t0) / ROWS
    print(f"      time   {'throughput (0 .. bottleneck)':<62s} Jain")
    for row, line in enumerate(chart):
        windows = [s.window(t0 + row * step, t0 + (row + 1) * step) for s in series]
        shares = [w.mean() if len(w) else 0.0 for w in windows]
        print(f"{line} {jain_fairness(shares):4.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", default=None,
                        choices=("reno", "cubic", "dctcp", "trim"))
    parser.add_argument("--paper-scale", action="store_true",
                        help="full 22 s at 1 Gbps (slow in pure Python)")
    args = parser.parse_args()
    protocols = [args.protocol] if args.protocol else ["reno", "trim"]

    for protocol in protocols:
        params = (FairnessParams.paper(protocol) if args.paper_scale
                  else FairnessParams.quick(protocol))
        result = run_fairness(params)
        print("=" * 78)
        print(f"{protocol}: flows start every {params.stagger:.2f}s, "
              f"stop from t={params.stop_start:.2f}s  "
              f"(digits 1-5 mark each flow's share)")
        print_chart(result, params)
        shares = " ".join(f"{s / 1e6:.1f}" for s in result.plateau_shares)
        print(f"plateau shares (Mbps): [{shares}]  "
              f"Jain index {result.plateau_fairness:.4f}  "
              f"timeouts {result.timeouts}\n")


if __name__ == "__main__":
    main()
