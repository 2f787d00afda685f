"""Extension — the persistence tension the paper's introduction poses.

Non-persistent HTTP pays a handshake round trip and a cold congestion
window on every request (why persistence exists); persistent
connections amortize both but *inherit* stale windows across OFF
periods (the paper's problem); TCP-TRIM keeps persistence and fixes the
inheritance.  One bench, three policies, same contended workload.
"""

import numpy as np

from benchmarks.paperbench import MS, header, row
from repro.experiments.scenarios import packets_per_second, run_until, warm_config
from repro.http.apps import HttpSession, LongTrainSender
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.factory import default_config, make_connection

N_REQUESTS = 60
GAP_MEAN = 4e-3


def run_policy(protocol: str, persistent: bool, seed: int = 2):
    sim = Simulator()
    star = build_star(sim, 2, delay_s=200e-6)
    rng = np.random.default_rng(seed)

    bg_kwargs = {}
    if protocol == "trim":
        bg_kwargs["capacity_pps"] = packets_per_second(1e9)
    bg, _ = make_connection(
        protocol, sim, star.servers[1], star.frontend,
        flow_id=9,
        config=warm_config(default_config(protocol, min_rto=0.2, initial_rto=0.2)),
        **bg_kwargs,
    )
    LongTrainSender(sim, bg, 0.0).start()

    session = HttpSession(
        sim, star.frontend, star.servers[0], protocol,
        request_flow_id=100, response_flow_id=200,
        config=default_config(protocol, min_rto=0.2, initial_rto=0.2),
        persistent=persistent,
        **bg_kwargs,
    )

    done = []  # one request in flight at a time: completion order

    def issue(exchange=None):
        if exchange is not None:
            done.append(exchange)
        if len(done) >= N_REQUESTS:
            return
        size = int(rng.uniform(20_000, 200_000))
        sim.schedule(
            float(rng.exponential(GAP_MEAN)),
            lambda: session.request(size, on_complete=issue),
        )

    issue()
    # The background train never drains: stop at the last completion.
    run_until(sim, lambda: len(done) >= N_REQUESTS, 20.0)
    times = [e.completion_time for e in done]
    return {
        "mean": float(np.mean(times)),
        "p99": float(np.percentile(times, 99)),
        "done": len(times),
    }


def test_ext_persistence_tension():
    def sweep():
        return {
            "reno non-persistent": run_policy("reno", persistent=False),
            "reno persistent": run_policy("reno", persistent=True),
            "trim persistent": run_policy("trim", persistent=True),
        }

    results = sweep()

    header("Extension: the persistence tension (contended 1 Gbps star)")
    for name, r in results.items():
        row(f"{name:22s}  mean={r['mean'] * MS:7.2f} ms  "
            f"p99={r['p99'] * MS:8.2f} ms  done={r['done']}")

    nonp = results["reno non-persistent"]
    pers = results["reno persistent"]
    trim = results["trim persistent"]
    assert all(r["done"] == N_REQUESTS for r in results.values())
    # Persistence beats per-request handshakes on the mean...
    assert pers["mean"] < nonp["mean"]
    # ...but its inherited windows create an RTO tail that TRIM removes.
    assert trim["p99"] < pers["p99"]
    assert trim["p99"] < nonp["p99"]
