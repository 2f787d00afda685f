"""Figure 11 — multi-hop, multi-bottleneck throughput.

Groups A and B send long trains to the front-end; group C sends to
group D.  Both 10 Gbps trunks are 2:1 oversubscribed and group A
crosses both.  The paper (1 Gbps hosts): TRIM gives A/B/C about
342.7/638/318 Mbps while TCP manages 259/471/233 — TRIM wins every
group because it avoids the buffer overflows that stall TCP.  The quick
preset scales all rates by 10×.
"""

from benchmarks.paperbench import header, row
from repro.experiments.multihop import MultiHopParams, run_multihop


def test_fig11_multihop():
    def both():
        return {
            protocol: run_multihop(MultiHopParams.quick(protocol))
            for protocol in ("reno", "trim")
        }

    results = both()

    header("Fig. 11(b): per-sender throughput (Mbps, quick preset = paper/10)")
    for protocol, result in results.items():
        row(f"{protocol:5s}  A={result.mean('a') / 1e6:6.1f}  "
            f"B={result.mean('b') / 1e6:6.1f}  C={result.mean('c') / 1e6:6.1f}  "
            f"timeouts={result.timeouts}  drops={result.dropped_packets}")

    trim, reno = results["trim"], results["reno"]
    # Shape: TRIM avoids losses entirely and rescues the
    # both-bottleneck group A that TCP's overflows starve.
    assert trim.timeouts == 0 and trim.dropped_packets == 0
    assert reno.timeouts > 0
    assert trim.mean("a") > reno.mean("a")
    # B (one bottleneck) outruns A (two bottlenecks) under TRIM, as in
    # the paper's 638 vs 342.7.
    assert trim.mean("b") > trim.mean("a")
    # Both trunks stay near-full under TRIM (group_size senders each).
    trunk2_load = (trim.mean("a") + trim.mean("b")) * 10
    assert trunk2_load > 0.9 * 1e9  # quick preset trunk = 1 Gbps
