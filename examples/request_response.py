#!/usr/bin/env python
"""A full request/response HTTP session over one persistent connection.

Uses :class:`repro.http.HttpSession`: the front-end issues requests, the
server answers once each request arrives, and the ON/OFF pattern — the
root of the paper's window-inheritance problem — emerges from request
spacing instead of being scripted.  A background transfer contends for
the bottleneck so congestion control matters.

Run:  python examples/request_response.py [--protocol trim]
"""

import argparse

import numpy as np

from repro.experiments.scenarios import packets_per_second, run_until, warm_config
from repro.http.apps import HttpSession, LongTrainSender
from repro.metrics.ascii import cdf_table
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp.factory import default_config, make_connection


def run_session(protocol: str, n_requests: int, seed: int) -> list[float]:
    sim = Simulator()
    star = build_star(sim, 2, ecn_threshold_pkts=17)
    rng = np.random.default_rng(seed)

    # Background long transfer from the second server, running the same
    # protocol (the paper evaluates homogeneous deployments; a TRIM flow
    # sharing a drop-tail queue with loss-based TCP would be starved —
    # the classic delay-based coexistence caveat).
    bg_kwargs = {}
    if protocol == "trim":
        bg_kwargs["capacity_pps"] = packets_per_second(1e9)
    bg_config = warm_config(default_config(protocol, min_rto=0.01, initial_rto=0.01))
    bg, _ = make_connection(
        protocol, sim, star.servers[1], star.frontend,
        flow_id=9, config=bg_config, **bg_kwargs,
    )
    LongTrainSender(sim, bg, 0.0).start()

    kwargs = {}
    if protocol == "trim":
        kwargs["capacity_pps"] = packets_per_second(1e9)
    session = HttpSession(
        sim, star.frontend, star.servers[0], protocol,
        request_flow_id=1, response_flow_id=2,
        config=default_config(protocol, min_rto=0.01, initial_rto=0.01),
        service_time=200e-6,
        **kwargs,
    )

    # A think-time loop: the next request goes out a few ms after the
    # previous response — larger than the RTT, so OFF periods exist.
    done = []  # one request in flight at a time: completion order

    def issue(exchange=None):
        if exchange is not None:
            done.append(exchange)
        if len(done) >= n_requests:
            return
        size = int(rng.uniform(8_000, 120_000))
        sim.schedule(
            float(rng.exponential(3e-3)),
            lambda: session.request(size, on_complete=issue),
        )

    issue()
    # The background transfer never drains: stop at the last completion.
    run_until(sim, lambda: len(done) >= n_requests, 20.0)
    return [e.completion_time for e in done]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", default=None)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    protocols = [args.protocol] if args.protocol else ["reno", "trim"]

    for protocol in protocols:
        times = run_session(protocol, args.requests, args.seed)
        print(f"{protocol}: {len(times)} exchanges completed")
        for line in cdf_table(times):
            print(f"  {line}")
        print()


if __name__ == "__main__":
    main()
