"""Figure 12 — mean and maximum completion times in the fat-tree.

Every server sends 1 MB (small 2–6 KB objects from 0.1 s, the big
remainder at 0.5 s) to a random sink over 10 Gbps links with 350 KB
buffers.  The paper compares TCP, DCTCP, L2DCT, and TCP-TRIM across
pods 4–10: TCP is always worst with sharply rising tails; TRIM is best
everywhere.  The quick preset uses pods 4 and 6 with 300 KB transfers.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.fattree import FatTreeParams, run_fattree

PROTOCOLS = ("reno", "dctcp", "l2dct", "trim")
PODS = (4, 6)


def test_fig12_fattree_completion():
    def sweep():
        # The paper's full 1 MB per server: pods 4 and 6 are already
        # congested enough at this load to separate the protocols.
        return {
            (protocol, k): run_fattree(
                FatTreeParams.quick(protocol, k=k, total_bytes=1_000_000)
            )
            for protocol in PROTOCOLS
            for k in PODS
        }

    results = sweep()

    header("Fig. 12: big-transfer mean/max completion (ms)")
    for k in PODS:
        cells = []
        for protocol in PROTOCOLS:
            r = results[(protocol, k)]
            cells.append(
                f"{protocol}={r.big_mean_completion * MS:6.1f}/"
                f"{r.big_max_completion * MS:7.1f}"
            )
        row(f"pods={k}: " + "  ".join(cells))

    for k in PODS:
        trim = results[("trim", k)]
        reno = results[("reno", k)]
        # TRIM's tail never exceeds TCP's, and everyone finishes.
        assert trim.big_max_completion <= reno.big_max_completion
        assert trim.completed_servers == trim.n_servers
    # At the larger scale the gap is strict: TCP's mean and tail blow up.
    assert (
        results[("trim", 6)].big_mean_completion
        < results[("reno", 6)].big_mean_completion
    )
    assert (
        results[("trim", 6)].big_max_completion
        < results[("reno", 6)].big_max_completion
    )
