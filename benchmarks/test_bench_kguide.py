"""Ablation — sweeping the back-off threshold K around Equation (22).

The guideline claims the Eq. 22 K is the smallest threshold that keeps
the bottleneck fully utilized.  We sweep multiples of it on the fluid
model (queue head-room) and on the simulator (goodput and queue), and
confirm the trade-off: K below the guideline costs utilization, K above
it only adds queueing.
"""

from benchmarks.paperbench import header, row
from repro.core import kguide
from repro.core.model import SteadyStateModel
from repro.experiments.properties import PropertiesParams, run_properties_case

C = 1e9 / (8 * 1460)
D = 1e-3
MULTIPLIERS = (0.6, 0.8, 1.0, 1.5, 2.0)


def test_kguide_model_sweep():
    def sweep():
        k_star = kguide.k_threshold(C, D)
        out = []
        for mult in MULTIPLIERS:
            k = max(D, k_star * mult)
            trace = SteadyStateModel(C, D, 10, k).run(300)
            out.append((mult, k, trace))
        return out

    traces = sweep()

    header("K guideline (fluid model, N=10): queue head-room vs K")
    for mult, k, trace in traces:
        row(f"K={mult:3.1f}x Eq.22 ({k * 1e6:7.0f} us)  min_queue={trace.min_queue:7.1f}  "
            f"max_queue={trace.max_queue:7.1f}  util_ok={trace.utilization_ok}")

    at_guideline = next(t for m, _, t in traces if m == 1.0)
    assert at_guideline.utilization_ok
    # Larger K only grows the standing queue.
    queues = [t.min_queue for m, _, t in traces]
    assert queues == sorted(queues)


def test_kguide_simulator_sweep():
    """Simulator cross-check: utilization near-full at the guideline K."""

    def run():
        params = PropertiesParams.quick("trim", end_time=0.4)
        return run_properties_case(params, n_trains=5)

    case = run()
    header("K guideline (simulator, 5 trains at Eq. 22 K)")
    row(f"goodput={case.goodput_bps / 1e6:7.1f} Mbps ({case.utilization:.1%})  "
        f"AQL={case.average_queue_pkts:5.1f} pkt  drops={case.dropped_packets}")
    assert case.utilization > 0.9
    assert case.dropped_packets == 0
