"""Extension — the incast goodput-collapse curve (related work [13]).

N synchronized 64 KB blocks into one front-end behind a 64-packet
buffer.  Loss-based TCP's batch goodput collapses once the fan-in's
synchronized tails exceed what the buffer absorbs (whole flows park on
200 ms RTOs); TCP-TRIM's delay back-off keeps headroom and defers the
collapse to the point where N × min_cwnd alone overruns the pipe.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.incast import IncastParams, run_incast_sweep


def test_ext_incast_collapse():
    def sweep():
        return {
            protocol: run_incast_sweep(IncastParams.quick(protocol))
            for protocol in ("reno", "trim")
        }

    results = sweep()

    header("Extension: incast goodput vs fan-in (64 KB blocks, 64-pkt buffer)")
    for reno, trim in zip(results["reno"], results["trim"]):
        row(f"n={reno.n_senders:3d}  "
            f"TCP={reno.goodput_bps / 1e6:7.1f} Mbps (to={reno.timeouts:3d})  "
            f"TRIM={trim.goodput_bps / 1e6:7.1f} Mbps (to={trim.timeouts:3d})")

    reno_by_n = {c.n_senders: c for c in results["reno"]}
    trim_by_n = {c.n_senders: c for c in results["trim"]}
    # TCP has collapsed by fan-in 8 (goodput well under 10% of line rate).
    assert reno_by_n[8].goodput_bps < 0.1 * 1e9
    assert reno_by_n[8].timeouts > 0
    # TRIM still delivers most of the line rate at fan-ins 8 and 24.
    assert trim_by_n[8].goodput_bps > 0.5 * 1e9
    assert trim_by_n[24].goodput_bps > 0.5 * 1e9
    assert trim_by_n[24].timeouts == 0
    # Every block eventually completes for both protocols.
    for cases in results.values():
        assert all(c.completed == c.n_senders for c in cases)
