"""Do the paper's claims depend on who wins a same-time tie?

The kernel runs same-time events in allocation order, ``(time, seq)``:
an accident of how the code schedules, not physics.
:class:`~tests.helpers.TieOrderSimulator` runs them LIFO or in a fixed
shuffle instead, each an equally legal execution of the same model.
The tolerances below are the extremes measured over LIFO and salts 1-8
on the quick presets and the benchmark's parameters (EXPERIMENTS.md,
Known deviation 9, has the table).  The tests run the cheapest points
that carry each claim, under LIFO and salt 3, or under all nine orders
where a point costs milliseconds.

What does not survive a reordering is Known deviation 9: Reno's
absolute ACTs and timeout counts, TRIM's incast lead at 97 senders, and
the Fig. 5/7 Reno motivation, which one test below pins.
"""

import sys

import pytest

from repro.experiments import registry
from repro.experiments.concurrency import ConcurrencyParams
from repro.experiments.fattree import FatTreeParams
from repro.experiments.incast import IncastParams
from repro.experiments.large_scale import LargeScaleParams
from repro.experiments.motivation import MotivationParams
from repro.experiments.store import to_jsonable
from repro.sim.kernel import Simulator
from repro.sim.randomness import derive_seed
from tests.helpers import TieOrderSimulator

#: the orders the costlier points run under.
ORDERS = ("lifo", 3)
#: every order the tolerances were measured over.
ALL_ORDERS = ("lifo", 1, 2, 3, 4, 5, 6, 7, 8)


def _sweep(monkeypatch, order, exp_id, params, labels):
    """``exp_id``'s points named in ``labels``, run on the kernel that
    breaks ties by ``order`` (None: the kernel itself) under root seed 1,
    then reduced."""
    exp = registry.get(exp_id)
    kernel = Simulator if order is None else TieOrderSimulator.ordering(order)
    monkeypatch.setattr(sys.modules[type(exp).__module__], "Simulator", kernel)
    points = [p for p in exp.points(params) if p.label in labels]
    results = [
        exp.run_point(params, p, derive_seed(1, f"{exp_id}/{p.label}"))
        for p in points
    ]
    return exp.reduce(params, points, results)


def test_fifo_ties_are_the_kernel_order(monkeypatch):
    # The control: tie = +seq must reproduce the kernel bit for bit, or
    # the subclass (heap key, wheel bypass, key_passed) is what moved.
    params = MotivationParams.quick("reno")
    kernel = _sweep(monkeypatch, None, "fig4", params, {"run"})
    fifo = _sweep(monkeypatch, "fifo", "fig4", params, {"run"})
    assert to_jsonable(fifo) == to_jsonable(kernel)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_incast_collapse_points(monkeypatch, order):
    # Reno collapses at 14 senders and TRIM at 33-34 under every order
    # (the kernel: 14 and 33); below its collapse TRIM is tie-free.
    def goodput(protocol, n):
        params = IncastParams(protocol=protocol, sender_counts=(n,),
                              block_bytes=16 * 1024, min_rto=0.01)
        (case,) = _sweep(monkeypatch, order, "incast", params, {f"n{n}"})
        return case.goodput_bps / 1e6

    assert goodput("reno", 14) < 0.2 * goodput("reno", 13)
    assert goodput("trim", 14) == pytest.approx(843.9, abs=0.05)
    held = goodput("trim", 32)
    assert held == pytest.approx(892.9, abs=0.05)
    assert goodput("trim", 34) < 0.5 * held


@pytest.mark.parametrize("order", ORDERS)
def test_fig4_fig6_trim_never_times_out(monkeypatch, order):
    # Measured: TRIM 0 timeouts, 0 drops, peak queue 16-18 packets;
    # Reno 1-2 timeouts on every connection and 1 558-1 646 drops.
    trim = _sweep(monkeypatch, order, "fig4", MotivationParams.quick("trim"),
                  {"run"})
    reno = _sweep(monkeypatch, order, "fig4", MotivationParams.quick("reno"),
                  {"run"})
    assert trim.total_timeouts == 0 and trim.dropped_packets == 0
    assert trim.peak_queue_pkts <= 20
    assert min(reno.timeouts_per_connection) >= 1
    assert reno.dropped_packets > 1000


@pytest.mark.parametrize("order", ORDERS)
def test_fig8_trim_act_and_reduction(monkeypatch, order):
    # 24 servers (both repeats): TRIM's ACT 10.91-11.14 ms against the
    # kernel's 11.03; Reno's 22.4-34.5 ms against 29.4, so the reduction
    # spans 50.2-68.0 % (kernel 62.5 %).  At 72 servers: TRIM 14.61-14.82
    # ms (kernel 14.63), reduction 53.8-60.8 % (kernel 52.6 %).
    labels = {"sw2-r0", "sw2-r1"}

    def act(protocol):
        params = LargeScaleParams.quick(protocol, switch_counts=(2,))
        (case,) = _sweep(monkeypatch, order, "fig8", params, labels)
        assert case.completed == case.expected
        return case.act * 1e3

    trim = act("trim")
    assert trim == pytest.approx(11.028, rel=0.02)
    assert 1 - trim / act("reno") >= 0.5


@pytest.mark.parametrize("order", ORDERS)
def test_fig12_trim_big_flow_without_loss(monkeypatch, order):
    # 4 pods: TRIM's big-flow mean 1.995-2.067 ms against the kernel's
    # 2.057, and no TRIM drop or timeout at any pod count under any order.
    params = FatTreeParams.quick("trim", pod_counts=(4,))
    (result,) = _sweep(monkeypatch, order, "fig12", params, {"k4"})
    assert result.big_mean_completion * 1e3 == pytest.approx(2.057, rel=0.04)
    assert result.total_timeouts == 0 and result.dropped_packets == 0


def test_fig5_reno_motivation_needs_the_kernel_order(monkeypatch):
    # Known deviation 9: with the kernel's ties one warm-started LPT
    # keeps the bottleneck full when the SPTs start, so two SPTs see
    # 2.67 ms; under LIFO (and every salt) both LPTs sit in an RTO stall
    # from the synchronized start and the SPTs cross an empty queue in
    # 0.75 ms, faster than TRIM's 1.93 ms.  TRIM barely moves.
    params = ConcurrencyParams.quick("reno", spt_counts=(2,))
    (kernel,) = _sweep(monkeypatch, None, "fig5", params, {"spt2"})
    (lifo,) = _sweep(monkeypatch, "lifo", "fig5", params, {"spt2"})
    assert kernel.act * 1e3 == pytest.approx(2.668, abs=0.01)
    assert lifo.act * 1e3 < 1.0
    trim = ConcurrencyParams.quick("trim", spt_counts=(2,))
    (trim_lifo,) = _sweep(monkeypatch, "lifo", "fig5", trim, {"spt2"})
    assert trim_lifo.act * 1e3 == pytest.approx(2.043, rel=0.06)
