#!/usr/bin/env python
"""Packet-train analysis of live simulated traffic (Fig. 1 / Fig. 2).

Attaches a packet logger to the bottleneck link (the NS2 trace-file
substitute), replays an ON/OFF HTTP workload through a persistent
connection, then re-extracts the packet trains with the Section II.A
gap rule — the same pipeline the paper ran over its 2 TB campus trace.

The workload draws through ``seeded_rng`` like every figure does; numpy
(installed with the ``test`` extra) is used only for this script's own
histogram and summary arithmetic.

Run:  python examples/trace_analysis.py [--seconds 5]
"""

import argparse

import numpy as np

from repro.http.apps import ScheduledResponder
from repro.http.packet_train import LPT_THRESHOLD_BYTES
from repro.http.workload import generate_onoff_schedule
from repro.metrics.ascii import sparkline
from repro.metrics.tracing import PacketLogger
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.sim.randomness import seeded_rng
from repro.tcp.base import TcpConfig
from repro.tcp.factory import make_connection


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    sim = Simulator()
    star = build_star(sim, 1)
    source, _ = make_connection(
        "trim", sim, star.servers[0], star.frontend,
        flow_id=1,
        config=TcpConfig(min_rto=0.01, initial_rto=0.01),
        capacity_pps=1e9 / (8 * 1460),
    )
    logger = PacketLogger(star.bottleneck, flow_id=1)

    rng = seeded_rng(args.seed)
    schedule = generate_onoff_schedule(
        rng, duration=args.seconds, start_time=0.01, drain_rate_bps=1e9
    )
    ScheduledResponder(sim, source, schedule).start()
    sim.run(until=args.seconds + 0.5)

    print(f"wire trace: {len(logger)} packets, "
          f"{logger.total_bytes() / 1e6:.1f} MB over {args.seconds:.0f} s\n")

    # The paper's Fig. 1: the packet-sequence staircase.  A sparkline of
    # per-100ms packet counts shows the ON/OFF bursts.
    bins = np.histogram(
        logger.times, bins=int(args.seconds * 10),
        range=(0, args.seconds),
    )[0]
    print("packets per 100 ms (ON/OFF structure):")
    print(f"  {sparkline(bins, width=70)}\n")

    # Re-extract trains using the smoothed-RTT gap rule.
    gap = source.smooth_rtt.value or 1e-3
    trains = logger.trains(gap=max(gap, 2e-4) * 1.5)
    spts = [t for t in trains if not t.is_long]
    lpts = [t for t in trains if t.is_long]
    print(f"extracted {len(trains)} trains with gap rule "
          f"{max(gap, 2e-4) * 1.5 * 1e6:.0f} us:")
    print(f"  SPTs: {len(spts)} (median {int(np.median([t.n_packets for t in spts]))} "
          f"packets)" if spts else "  SPTs: 0")
    print(f"  LPTs (>= {LPT_THRESHOLD_BYTES // 1024} KB): {len(lpts)}")
    sizes = np.array([t.total_bytes for t in trains])
    for kb in (4, 64, 128):
        print(f"  P[train <= {kb:3d} KB] = {np.mean(sizes <= kb * 1024):.2f}")
    print("\nCompare with the Fig. 2 anchors: <=4 KB ~0.20, <=128 KB ~0.90.")
    print(f"sender stats: {source.probes_completed} probes, "
          f"{source.stats.timeouts} timeouts, "
          f"{source.stats.retransmits} retransmissions.")


if __name__ == "__main__":
    main()
