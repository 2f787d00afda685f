"""Unit tests for the HTTP application drivers."""

import pytest

from repro.http.apps import INFINITE_SEGMENTS, LongTrainSender, ScheduledResponder, burst_at
from repro.http.workload import OnOffEvent
from tests.helpers import make_pair


class TestScheduledResponder:
    def test_emits_messages_at_scheduled_times(self):
        sim, _star, source, sink = make_pair()
        schedule = [OnOffEvent(0.01, 2920), OnOffEvent(0.02, 1460)]
        responder = ScheduledResponder(sim, source, schedule).start()
        sim.run(until=0.1)
        assert len(responder.messages) == 2
        assert responder.messages[0].n_segments == 2
        assert responder.messages[0].submit_time == pytest.approx(0.01)
        assert sink.next_expected == 3

    def test_completed_and_completion_times(self):
        sim, _star, source, _sink = make_pair()
        responder = ScheduledResponder(
            sim, source, [OnOffEvent(0.01, 1460)]
        ).start()
        sim.run(until=0.1)
        assert len(responder.completed) == 1
        assert responder.completion_times()[0] > 0

    def test_unfinished_messages_excluded(self):
        sim, _star, source, _sink = make_pair()
        responder = ScheduledResponder(
            sim, source, [OnOffEvent(0.01, 1460 * 1000)]
        ).start()
        sim.run(until=0.0101)  # barely started
        assert responder.completed == []


class TestLongTrainSender:
    def test_infinite_train_keeps_sending(self):
        sim, _star, source, _sink = make_pair()
        LongTrainSender(sim, source, 0.01).start()
        sim.run(until=0.05)
        assert source.app_limit == INFINITE_SEGMENTS
        assert source.t_seqno > 100

    def test_finite_train_completes(self):
        sim, _star, source, _sink = make_pair()
        sender = LongTrainSender(sim, source, 0.01, segments=50).start()
        sim.run(until=0.1)
        assert sender.message is not None
        assert sender.message.finish_time is not None

    def test_stop_at_truncates(self):
        sim, _star, source, sink = make_pair()
        LongTrainSender(sim, source, 0.0).start().stop_at(0.02)
        sim.run(until=0.1)
        sent = source.t_seqno
        sim.run()
        assert source.t_seqno == sent
        assert sink.next_expected == source.app_limit


class TestBurstAt:
    def test_all_sources_emit_simultaneously(self):
        sim, star, *_ = make_pair(n_servers=3)
        from repro.tcp.factory import source_class
        from repro.tcp.base import TcpConfig, TcpSink
        from tests.helpers import FAST

        sources = []
        for i, server in enumerate(star.servers[1:], start=2):
            src = source_class("reno")(
                sim, server, i, star.frontend.node_id, config=TcpConfig(**FAST)
            )
            TcpSink(sim, star.frontend, flow_id=i)
            sources.append(src)
        messages = burst_at(sim, sources, time=0.05, segments=10)
        sim.run(until=0.2)
        assert len(messages) == 2
        assert all(m.submit_time == pytest.approx(0.05) for m in messages)
        assert all(m.finish_time is not None for m in messages)

    def test_segment_validation(self):
        sim, _star, source, _sink = make_pair()
        with pytest.raises(ValueError):
            burst_at(sim, [source], time=0.01, segments=0)
