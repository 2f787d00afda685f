"""Figure 9 — TCP-TRIM's basic properties.

(a) queue trace with 5 long trains: TCP saw-tooths against the buffer
ceiling; TRIM holds a small stable queue.  (b) average queue length
rises with the train count but stays far below TCP's.  (c) TRIM drops
nothing.  (d) goodput stays near full utilization (paper: ~98%).
"""

from benchmarks.paperbench import header, row
from repro.experiments.properties import (
    PropertiesParams,
    run_properties_sweep,
    run_queue_trace,
)

COUNTS = (2, 4, 6, 8, 10)


def test_fig09_properties():
    def full():
        out = {}
        for protocol in ("reno", "trim"):
            params = PropertiesParams.quick(protocol)
            out[protocol] = {
                "trace": run_queue_trace(params, n_trains=5),
                "sweep": run_properties_sweep(params, counts=COUNTS),
            }
        return out

    results = full()

    header("Fig. 9(a): queue with 5 LPTs")
    for protocol in ("reno", "trim"):
        trace = results[protocol]["trace"]
        row(f"{protocol:5s}  mean={trace.mean():6.1f} pkt  peak={trace.max():5.0f} pkt")

    header("Fig. 9(b)-(d): AQL / drops / goodput vs concurrent trains")
    for reno, trim in zip(results["reno"]["sweep"], results["trim"]["sweep"]):
        row(f"n={reno.n_trains:2d}  "
            f"AQL tcp={reno.average_queue_pkts:6.1f} trim={trim.average_queue_pkts:6.1f}  "
            f"drops tcp={reno.dropped_packets:5d} trim={trim.dropped_packets:3d}  "
            f"util tcp={reno.utilization:6.1%} trim={trim.utilization:6.1%}")

    reno_trace = results["reno"]["trace"]
    trim_trace = results["trim"]["trace"]
    assert reno_trace.max() >= 99  # saw-tooth touches the 100-pkt buffer
    assert trim_trace.max() < 50  # small and stable

    for reno, trim in zip(results["reno"]["sweep"], results["trim"]["sweep"]):
        assert trim.average_queue_pkts < reno.average_queue_pkts
        assert trim.dropped_packets == 0
        assert trim.utilization > 0.9  # paper: ~98%
    # AQL rises with concurrency for both (paper's observed trend).
    trim_aqls = [c.average_queue_pkts for c in results["trim"]["sweep"]]
    assert trim_aqls[-1] > trim_aqls[0]
