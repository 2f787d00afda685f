"""Extension — does SACK on the baseline close the gap to TCP-TRIM?

The paper's testbed CUBIC runs on a Linux stack with SACK.  This bench
re-runs the Fig. 13(b)–(e) web-service scenario with SACK enabled on
the CUBIC baseline, against TCP-TRIM: better loss recovery trims the
extreme RTO tail but cannot prevent the drops themselves, so TRIM's
completion-time distribution still dominates — loss *avoidance* beats
loss *repair* for tail latency.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.testbed import WebServiceParams, run_web_service
from repro.tcp.factory import default_config


def test_ext_sack_on_baseline():
    def sweep():
        out = {}
        out["cubic"] = run_web_service(WebServiceParams.quick("cubic"))
        sack_params = WebServiceParams.quick("cubic")
        # Same scenario, SACK-enabled baseline.
        original_min_rto = sack_params.min_rto
        result = _run_with_sack(sack_params, original_min_rto)
        out["cubic+sack"] = result
        out["trim"] = run_web_service(WebServiceParams.quick("trim"))
        return out

    results = sweep()

    header("Extension: SACK on the web-service baseline vs TCP-TRIM")
    for name, r in results.items():
        row(f"{name:11s}  ARCT={r.arct * MS:7.2f} ms  p99={r.p99 * MS:7.2f} ms  "
            f"64-256KB max={r.band_max * MS:7.2f} ms  "
            f"<25ms={r.fraction_under_threshold:6.1%}  timeouts={r.timeouts}")

    cubic = results["cubic"]
    sack = results["cubic+sack"]
    trim = results["trim"]
    # SACK repairs faster: the baseline's ARCT improves or holds...
    assert sack.arct <= cubic.arct * 1.1
    # ...but TRIM still dominates mean and tail: it avoided the losses.
    assert trim.arct < sack.arct
    assert trim.p99 < sack.p99
    assert trim.timeouts == 0


def _run_with_sack(params, min_rto):
    """run_web_service with a SACK-enabled config for the protocol."""
    import repro.experiments.testbed as testbed

    original = testbed.default_config

    def sack_config(protocol, **overrides):
        overrides.setdefault("sack", True)
        return original(protocol, **overrides)

    testbed.default_config = sack_config
    try:
        return testbed.run_web_service(params)
    finally:
        testbed.default_config = original
