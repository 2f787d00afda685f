"""Figure 8 — large-scale HTTP concurrency on the two-level tree.

The paper sweeps 210–1050 servers (5–25 edge switches × 42 servers) and
reports the ACT of SPTs: TCP-TRIM reduces TCP's ACT by up to 80%, and
still ≥50% past 840 servers.  The quick preset shrinks the fan-in
(12 servers/switch, 10× slower links) while keeping the structure; run
``python -m repro.experiments fig8 --preset paper`` for full scale.
"""

from benchmarks.paperbench import MS, header, row
from repro.experiments.large_scale import LargeScaleParams, run_large_scale_sweep


def test_fig08_large_scale():
    def sweep():
        out = {}
        for protocol in ("reno", "trim"):
            for distribution in ("uniform", "exponential"):
                params = LargeScaleParams.quick(
                    protocol, repeats=2, distribution=distribution
                )
                out[(protocol, distribution)] = run_large_scale_sweep(params)
        return out

    results = sweep()

    reductions = []
    for distribution in ("uniform", "exponential"):
        header(f"Fig. 8(b): ACT of SPTs at scale — TCP vs TCP-TRIM "
               f"({distribution} arrivals)")
        pairs = zip(
            results[("reno", distribution)], results[("trim", distribution)]
        )
        for reno, trim in pairs:
            reduction = 1.0 - trim.act / reno.act
            reductions.append(reduction)
            row(f"servers={reno.n_servers:5d}  TCP={reno.act * MS:8.2f} ms "
                f"(to={reno.timeouts})  TRIM={trim.act * MS:8.2f} ms "
                f"(to={trim.timeouts})  reduction={reduction:6.1%}")

    # Shape: TRIM always wins, with a large reduction somewhere in the
    # sweep (paper: up to 80%, >=50% at the high end), under both
    # arrival distributions.
    assert all(r > 0.1 for r in reductions)
    assert max(reductions) > 0.4
    for distribution in ("uniform", "exponential"):
        assert all(t.timeouts == 0 for t in results[("trim", distribution)])
