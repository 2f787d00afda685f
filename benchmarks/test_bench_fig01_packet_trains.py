"""Figure 1 — packet-train structure of one server's HTTP traffic.

The paper plots the packet-sequence staircase of a selected web server:
short trains burst intermittently while long trains stream.  We
regenerate the trace from the Fig. 2 samplers and report the SPT/LPT
composition the figure narrates (SPTs carry a few to dozens of packets,
LPTs about a hundred or more).
"""

from benchmarks.paperbench import header, row
from repro.experiments.workload_figs import characterize_workload


def test_fig01_packet_trains():
    wl = characterize_workload(seed=1, duration=10.0)

    trains = wl.trains
    spts = [t for t in trains if not t.is_long]
    lpts = [t for t in trains if t.is_long]
    header("Fig. 1: packet trains of one web server (10 s of traffic)")
    row(f"trains: {len(trains)} total, {len(spts)} SPT, {len(lpts)} LPT")
    spt_packets = sorted(t.n_packets for t in spts)
    row(f"SPT packets: min={spt_packets[0]}, median={spt_packets[len(spt_packets) // 2]}, "
        f"max={spt_packets[-1]}  (paper: a few to dozens)")
    lpt_packets = sorted(t.n_packets for t in lpts)
    row(f"LPT packets: min={lpt_packets[0]}, max={lpt_packets[-1]}  "
        f"(paper: ~one hundred or more)")

    # Shape assertions: SPTs are small bursts, LPTs carry ~90+ packets.
    assert spt_packets[len(spt_packets) // 2] <= 50
    assert lpt_packets[0] >= 88  # 128 KB / 1460 B
    assert len(lpts) < len(spts)
