"""Extension — D²TCP's deadline awareness (related work [15]).

Competing transfers with staggered deadlines share one bottleneck.
DCTCP back-offs are deadline-blind, so urgent and patient flows finish
in arrival order; D²TCP's gamma-corrected back-off shifts bandwidth to
near-deadline flows and misses fewer deadlines — the comparison the
paper cites when positioning TCP-TRIM against deadline-aware work.
"""

from benchmarks.paperbench import MS, header, row
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.base import TcpSink
from repro.tcp.d2tcp import D2tcpSource
from repro.tcp.dctcp import DctcpSource
from repro.tcp.factory import default_config

N_FLOWS = 8
SEGMENTS = 400
FAST = dict(min_rto=0.01, initial_rto=0.01)


def run_protocol(deadline_aware: bool):
    sim = Simulator()
    star = build_star(sim, N_FLOWS, frontend_bandwidth_bps=500e6,
                      ecn_threshold_pkts=17)
    config = default_config("d2tcp", **FAST)
    # Deadlines tighten with flow index: flow 0 has lots of slack, the
    # last flow barely enough for its fair share.
    fair_time = N_FLOWS * SEGMENTS * 1460 * 8 / 500e6
    deadlines = [
        0.013 + fair_time * (1.6 - 1.1 * i / (N_FLOWS - 1))
        for i in range(N_FLOWS)
    ]
    flows = []
    for i, server in enumerate(star.servers):
        if deadline_aware:
            source = D2tcpSource(
                sim, server, flow_id=i + 1, dst_id=star.frontend.node_id,
                config=config, deadline=deadlines[i],
            )
        else:
            source = DctcpSource(
                sim, server, flow_id=i + 1, dst_id=star.frontend.node_id,
                config=config,
            )
        TcpSink(sim, star.frontend, flow_id=i + 1)
        message = source.send_message(SEGMENTS)
        flows.append((message, deadlines[i]))
    sim.run(until=5.0)
    missed = sum(
        1
        for message, deadline in flows
        if message.finish_time is None or message.finish_time > deadline
    )
    lateness = [
        max(0.0, message.finish_time - deadline)
        for message, deadline in flows
        if message.finish_time is not None
    ]
    return {
        "missed": missed,
        "worst_lateness": max(lateness) if lateness else float("inf"),
        "all_done": all(m.finish_time is not None for m, _ in flows),
    }


def test_ext_d2tcp_deadlines():
    results = {
        "dctcp": run_protocol(deadline_aware=False),
        "d2tcp": run_protocol(deadline_aware=True),
    }

    header("Extension: staggered deadlines on a shared bottleneck")
    for name, r in results.items():
        row(f"{name:6s}  missed={r['missed']}/{N_FLOWS}  "
            f"worst lateness={r['worst_lateness'] * MS:7.2f} ms")

    assert results["dctcp"]["all_done"] and results["d2tcp"]["all_done"]
    # Deadline awareness strictly reduces misses (or achieves zero).
    assert results["d2tcp"]["missed"] <= results["dctcp"]["missed"]
    assert results["d2tcp"]["worst_lateness"] <= (
        results["dctcp"]["worst_lateness"] + 1e-9
    )
