"""Ablation — sensitivity to the smooth-RTT gain α (paper uses 0.25).

α controls both the inter-train gap threshold and the probe deadline.
On a path with varying RTT (a loss-based background transfer shares the
bottleneck), a sluggish α under-tracks the saw-tooth: smooth_RTT goes
stale, probes are condemned by out-of-date deadlines, and the stream
slows.  The paper's 0.25 sits in the flat, safe region.
"""

from benchmarks.paperbench import MS, header, row
from repro.core.trim import TrimSource
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpConfig, TcpSink

ALPHAS = (0.1, 0.25, 0.5, 0.9)
CAPACITY = 1e9 / (8 * 1460)


def test_ablation_smooth_alpha():
    from repro.experiments.ablation import run_alpha_sweep

    results = {c.alpha: c for c in run_alpha_sweep(alphas=ALPHAS)}

    header("Ablation: smooth-RTT gain α (contended 20-train ON/OFF stream)")
    for alpha, c in results.items():
        row(f"alpha={alpha:4.2f}  probes={c.probes_completed:3d}  "
            f"probe_deadline_misses={c.probe_deadline_misses:3d}  "
            f"rto={c.timeouts:2d}  stream done@{c.stream_finish_time * MS:7.1f} ms")

    # Every α delivers the full stream; the paper's 0.25 sits in the
    # flat region, while the sluggish extreme goes stale and slows.
    for c in results.values():
        assert c.delivered_segments == 20 * 40
    paper = results[0.25]
    assert paper.probe_deadline_misses <= 2
    assert paper.stream_finish_time <= results[0.9].stream_finish_time * 1.05
    assert results[0.1].probe_deadline_misses > 5 * (paper.probe_deadline_misses + 1)
    assert results[0.1].stream_finish_time > paper.stream_finish_time
