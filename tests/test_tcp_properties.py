"""Hypothesis property tests on the TCP sender/receiver pair.

Random ON/OFF schedules with random losses must always satisfy the
transport invariants: complete in-order delivery, sequence-number
monotonicity, and conservative accounting.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.tcp.base import TcpConfig
from tests.helpers import FAST, drop_seqs_once, install_loss, make_pair

trains = st.lists(
    st.tuples(
        st.floats(min_value=0.001, max_value=0.05),  # start offset
        st.integers(min_value=1, max_value=40),  # segments
    ),
    min_size=1,
    max_size=8,
)
loss_sets = st.sets(st.integers(min_value=0, max_value=100), max_size=10)


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=trains, losses=loss_sets, sack=st.booleans())
def test_property_onoff_stream_invariants(schedule, losses, sack):
    config = TcpConfig(sack=sack, **FAST)
    sim, star, source, sink = make_pair("reno", config=config)
    install_loss(star.bottleneck, drop_seqs_once(losses))

    total = sum(n for _, n in schedule)
    messages = []  # the source forgets a message once it completes
    for offset, segments in schedule:
        sim.schedule_at(
            offset, lambda n=segments: messages.append(source.send_message(n))
        )

    invariant_checks = []

    def check_invariants():
        invariant_checks.append(True)
        assert source.highest_ack < source.t_seqno or source.flight == 0
        assert source.t_seqno <= max(source.app_limit, source.max_seq_sent + 1)
        assert source.highest_ack + 1 <= source.app_limit
        # The sink can never expect beyond what was ever sent.  (Not
        # ``t_seqno``: go-back-N recovery pulls t_seqno back to
        # highest_ack + 1 while ACKs for later data are still in
        # flight, so next_expected > t_seqno is a legal transient.)
        assert sink.next_expected <= source.max_seq_sent + 1
        if sim.now < 2.0:
            sim.schedule(0.01, check_invariants)

    sim.schedule_at(0.0, check_invariants)
    sim.run(until=3.0)

    assert invariant_checks, "invariant probe never ran"
    assert sink.next_expected == total
    assert source.all_acked
    assert sink.delivered_segments == total
    # Message bookkeeping: every message finished, in order.
    finishes = [m.finish_time for m in messages]
    assert len(finishes) == len(schedule)
    assert all(f is not None for f in finishes)
    assert finishes == sorted(finishes)


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(losses=loss_sets)
def test_property_trim_stream_invariants(losses):
    """The same contract holds for TCP-TRIM with probing active."""
    sim, star, source, sink = make_pair(
        "trim", config=TcpConfig(**FAST), capacity_pps=85616.0
    )
    install_loss(star.bottleneck, drop_seqs_once(losses))
    for i in range(4):
        sim.schedule_at(0.01 * (i + 1), lambda: source.send_message(25))
    sim.run(until=3.0)
    assert sink.next_expected == 100
    assert source.all_acked
    assert not source.probing
    assert not source.suspended
