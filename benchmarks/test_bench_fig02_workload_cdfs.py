"""Figure 2 — CDFs of packet-train size and inter-train gap.

Validates that the synthetic workload reproduces the published anchor
points: train sizes 0.5–256 KB with ≲20% under 4 KB and ~90% under
128 KB; inter-train gaps from hundreds of microseconds to several
milliseconds.
"""

from benchmarks.paperbench import header, row
from repro.http.workload import gap_sampler, pt_size_sampler
from repro.sim.randomness import seeded_rng


def share_at_most(samples, bound):
    return sum(x <= bound for x in samples) / len(samples)


def test_fig02_workload_cdfs():
    def sample():
        rng = seeded_rng(2)
        sizes = pt_size_sampler().sample(rng, 50_000)
        gaps = gap_sampler().sample(rng, 50_000)
        return sizes, gaps

    sizes, gaps = sample()

    header("Fig. 2(a): CDF of packet-train size")
    for kb in (0.5, 4, 16, 64, 128, 256):
        frac = share_at_most(sizes, kb * 1024)
        row(f"P[size <= {kb:5.1f} KB] = {frac:.3f}")
    header("Fig. 2(b): CDF of inter-train gap")
    for us in (200, 500, 1000, 2000, 5000):
        frac = share_at_most(gaps, us * 1e-6)
        row(f"P[gap <= {us:4d} us] = {frac:.3f}")

    assert abs(share_at_most(sizes, 4096) - 0.20) < 0.02
    assert abs(share_at_most(sizes, 131072) - 0.90) < 0.02
    assert min(sizes) >= 512 and max(sizes) <= 262144
    assert min(gaps) >= 2e-4 - 1e-9 and max(gaps) <= 5e-3 + 1e-9
