"""Completion callbacks are one-shot and released at completion.

``Message.on_complete`` and ``Exchange.on_complete`` are cleared just
before they are called, so whatever the closure holds — for an
open-loop request the whole chain request → serve → respond → finish →
driver — is released when the message / exchange completes, while the
simulation is still running, not when the point ends.  Neither the
source nor the session keeps a roster of what it carried, so a finished
message or exchange lives exactly as long as the caller's reference.
The cyclic collector is off for the whole module: only a dropped
reference may free anything here.
"""

import gc
import weakref

import pytest

from repro.http import apps
from repro.http.apps import Exchange, HttpSession
from repro.net.topology import build_star
from repro.sim.kernel import Simulator
from repro.tcp import base
from repro.tcp.base import Message, TcpConfig
from tests.helpers import FAST, make_pair


@pytest.fixture(autouse=True)
def no_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def tracked_callback(fired):
    """A fresh closure plus a weak reference to it; the caller must not
    keep the closure itself."""

    def callback(done):
        fired.append(done)

    return callback, weakref.ref(callback)


def probe_later(sim, delay, ref, seen):
    """Record, from inside the run, whether ``ref`` is dead by then."""
    sim.schedule(delay, lambda: seen.append((ref() is None, sim.pending > 0)))


class _WeakMessage(Message):
    __slots__ = ("__weakref__",)


class _WeakExchange(Exchange):
    __slots__ = ("__weakref__",)


@pytest.fixture
def weakrefable(monkeypatch):
    """Build messages and exchanges as subclasses that only add a
    ``__weakref__`` slot, so a test can watch them die."""
    monkeypatch.setattr(base, "Message", _WeakMessage)
    monkeypatch.setattr(apps, "Exchange", _WeakExchange)


class TestMessageCallback:
    def test_released_at_completion_while_the_run_goes_on(self):
        sim, _star, source, _sink = make_pair()
        fired, seen = [], []
        callback, ref = tracked_callback(fired)
        short = source.send_message(3, on_complete=callback)
        del callback
        source.send_message(5_000)  # keeps the simulation busy long after
        probe_later(sim, 0.005, ref, seen)
        sim.run(until=0.5)
        assert short.finish_time is not None and short.finish_time < 0.005
        assert seen == [(True, True)]  # dead, and events were still queued
        assert fired == [short]
        assert short.on_complete is None

    def test_fires_exactly_once(self):
        sim, _star, source, _sink = make_pair()
        fired = []
        message = source.send_message(4, on_complete=fired.append)
        sim.run(until=0.5)
        source._complete_messages()  # a later ACK finds nothing to re-fire
        assert fired == [message]

    def test_callback_may_queue_the_next_message(self):
        sim, _star, source, _sink = make_pair()
        fired, refs, sent = [], [], []

        def queue_next():
            callback, ref = tracked_callback(fired)
            refs.append(ref)

            def complete(message):
                callback(message)
                if len(refs) < 4:
                    queue_next()

            sent.append(source.send_message(2, on_complete=complete))

        queue_next()
        sim.run(until=0.5)
        assert fired == sent and len(fired) == 4
        assert all(ref() is None for ref in refs)
        assert all(m.on_complete is None for m in sent)

    def test_stopped_message_keeps_its_callback_and_never_fires_it(self):
        sim, _star, source, _sink = make_pair()
        fired = []
        callback = fired.append
        done = source.send_message(2, on_complete=fired.append)
        cut = source.send_message(50_000, on_complete=callback)
        sim.schedule(0.002, source.stop)
        sim.run(until=0.5)
        assert source.all_acked  # everything offered before the stop landed
        assert fired == [done]
        assert cut.finish_time is None
        assert cut.on_complete is callback
        # stop() empties the completion FIFO of what it cut: only the
        # caller still holds ``cut``
        assert not source._pending_messages
        # ... and the FIFO still completes in submission order afterwards
        again = [source.send_message(2, on_complete=fired.append) for _ in range(3)]
        sim.run(until=1.0)
        assert fired == [done, *again]

    def test_finished_message_dies_with_the_callers_reference(self, weakrefable):
        sim, _star, source, _sink = make_pair()
        short = source.send_message(3)
        source.send_message(5_000)  # the run goes on
        sim.run(until=0.005)
        assert type(short) is _WeakMessage and short.finish_time is not None
        ref = weakref.ref(short)
        del short
        assert ref() is None


def make_session(persistent):
    sim = Simulator()
    star = build_star(sim, 1)
    session = HttpSession(
        sim, star.frontend, star.servers[0], "reno",
        request_flow_id=100, response_flow_id=200,
        config=TcpConfig(**FAST), persistent=persistent,
    )
    return sim, session


@pytest.mark.parametrize("persistent", [True, False], ids=["persistent", "fresh"])
class TestExchangeCallback:
    def test_released_at_completion_while_the_run_goes_on(self, persistent):
        sim, session = make_session(persistent)
        fired, seen = [], []
        callback, ref = tracked_callback(fired)
        exchange = session.request(3_000, on_complete=callback)
        del callback
        session.request(5_000_000)  # still in flight when the probe runs
        probe_later(sim, 0.005, ref, seen)
        sim.run(until=0.5)
        assert exchange.completion_time < 0.005
        assert seen == [(True, True)]
        assert fired == [exchange]
        # nothing on the finished path still holds a closure
        assert exchange.on_complete is None
        assert exchange.request.on_complete is None
        assert exchange.response.on_complete is None

    def test_fires_exactly_once(self, persistent):
        sim, session = make_session(persistent)
        fired = []
        exchange = session.request(10_000, on_complete=fired.append)
        sim.run(until=0.5)
        session._finish(exchange)  # a repeated finish has nothing to call
        assert fired == [exchange]

    def test_callback_may_issue_the_next_request(self, persistent):
        """What the open-loop driver's ``_complete`` → ``pool.release``
        → reuse does: the next request on the same session is issued
        from inside the previous one's completion."""
        sim, session = make_session(persistent)
        fired, refs, issued = [], [], []

        def issue():
            callback, ref = tracked_callback(fired)
            refs.append(ref)

            def complete(exchange):
                callback(exchange)
                if len(refs) < 5:
                    issue()

            issued.append(session.request(4_000, on_complete=complete))

        issue()
        sim.run(until=0.5)
        assert fired == issued and len(fired) == 5
        assert all(ref() is None for ref in refs)
        assert all(e.on_complete is None for e in issued)

    def test_finished_exchange_dies_with_the_callers_reference(
        self, persistent, weakrefable
    ):
        sim, session = make_session(persistent)
        exchange = session.request(3_000)
        session.request(5_000_000)  # still in flight after the first is done
        sim.run(until=0.005)
        assert type(exchange) is _WeakExchange
        assert exchange.completion_time < 0.005
        parts = (exchange, exchange.request, exchange.response)
        assert type(exchange.request) is type(exchange.response) is _WeakMessage
        refs = [weakref.ref(obj) for obj in parts]
        del exchange, parts
        assert sim.pending > 0
        assert [ref() for ref in refs] == [None, None, None]
