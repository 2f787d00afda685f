"""Figure 2 — CDFs of packet-train size and inter-train gap.

Validates that the synthetic workload reproduces the published anchor
points: train sizes 0.5–256 KB with ≲20% under 4 KB and ~90% under
128 KB; inter-train gaps from hundreds of microseconds to several
milliseconds.
"""

import numpy as np

from benchmarks.paperbench import header, row
from repro.http.workload import gap_sampler, pt_size_sampler


def test_fig02_workload_cdfs():
    def sample():
        rng = np.random.default_rng(2)
        sizes = pt_size_sampler().sample(rng, 50_000)
        gaps = gap_sampler().sample(rng, 50_000)
        return sizes, gaps

    sizes, gaps = sample()

    header("Fig. 2(a): CDF of packet-train size")
    for kb in (0.5, 4, 16, 64, 128, 256):
        frac = float(np.mean(sizes <= kb * 1024))
        row(f"P[size <= {kb:5.1f} KB] = {frac:.3f}")
    header("Fig. 2(b): CDF of inter-train gap")
    for us in (200, 500, 1000, 2000, 5000):
        frac = float(np.mean(gaps <= us * 1e-6))
        row(f"P[gap <= {us:4d} us] = {frac:.3f}")

    assert abs(float(np.mean(sizes <= 4096)) - 0.20) < 0.02
    assert abs(float(np.mean(sizes <= 131072)) - 0.90) < 0.02
    assert sizes.min() >= 512 and sizes.max() <= 262144
    assert gaps.min() >= 2e-4 - 1e-9 and gaps.max() <= 5e-3 + 1e-9
