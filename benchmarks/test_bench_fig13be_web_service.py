"""Figure 13(b)–(e) — the web-service scenario on the testbed substitute.

Four servers send thousands of Fig. 2-distributed responses over 1 Gbps
links.  The paper scatter-plots the 64–256 KB samples: under CUBIC and
Reno many exceed 50 ms and some reach ~250 ms (one RTO), while under
TCP-TRIM no sample exceeds 25 ms; the full CDF has ~99% of TRIM
responses under 25 ms.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.testbed import WebServiceParams, run_web_service

PROTOCOLS = ("cubic", "reno", "trim")


def test_fig13be_web_service():
    def sweep():
        return {
            protocol: run_web_service(WebServiceParams.quick(protocol))
            for protocol in PROTOCOLS
        }

    results = sweep()

    header("Fig. 13(b)-(e): response completion times (quick preset)")
    for protocol, r in results.items():
        row(f"{protocol:5s}  ARCT={r.arct * MS:7.2f} ms  p99={r.p99 * MS:7.2f} ms  "
            f"64-256KB max={r.band_max * MS:7.2f} ms  "
            f"<25ms={r.fraction_under_threshold:6.1%}  timeouts={r.timeouts}")

    trim = results["trim"]
    # Fig. 13(d): no TRIM sample in the 64-256 KB band exceeds 25 ms.
    assert trim.band_max <= 25e-3 * 1.2
    # Fig. 13(e): ~99% of all TRIM responses complete under 25 ms.
    assert trim.fraction_under_threshold > 0.95
    assert trim.timeouts == 0
    # The baselines show the paper's heavy tails (>=50 ms samples).
    for baseline in ("cubic", "reno"):
        assert results[baseline].band_max > 50e-3
        assert results[baseline].arct > trim.arct
