"""Table I — the number of timeouts in each protocol.

The paper counts RTO events across the Fig. 12 fat-tree runs:

    pods   TCP   DCTCP  L2DCT  TCP-TRIM
      4     13       9      9         8
      6     85      75     71        39
      8    452     440    274       141
     10   1738     859    493       285

TCP always suffers the most, DCTCP and L2DCT sit between, and TCP-TRIM
always the fewest (~80% fewer than TCP at pod 10).  The quick preset
reproduces the ordering at pods 4–6 with heavier per-server load to
induce congestion at small scale.
"""

from benchmarks.paperbench import header, row
from repro.experiments.fattree import FatTreeParams, run_fattree

PROTOCOLS = ("reno", "dctcp", "l2dct", "trim")
PODS = (4, 6)


def test_table1_timeout_counts():
    def sweep():
        return {
            (protocol, k): run_fattree(
                FatTreeParams.quick(protocol, k=k, total_bytes=1_000_000)
            )
            for protocol in PROTOCOLS
            for k in PODS
        }

    results = sweep()

    header("Table I: timeouts per protocol")
    row(f"{'pods':>5} " + "".join(f"{p:>8}" for p in PROTOCOLS))
    for k in PODS:
        counts = [results[(p, k)].total_timeouts for p in PROTOCOLS]
        row(f"{k:>5} " + "".join(f"{c:>8}" for c in counts))

    for k in PODS:
        tcp = results[("reno", k)].total_timeouts
        trim = results[("trim", k)].total_timeouts
        # TRIM strictly fewest; TCP most (ties allowed among the middle).
        assert trim <= min(results[(p, k)].total_timeouts for p in PROTOCOLS)
        assert tcp >= max(results[(p, k)].total_timeouts for p in PROTOCOLS)
    # The big-scale shape: TRIM cuts TCP's timeouts by a large factor.
    tcp6 = results[("reno", 6)].total_timeouts
    trim6 = results[("trim", 6)].total_timeouts
    assert tcp6 > 0
    assert trim6 <= tcp6 * 0.5
