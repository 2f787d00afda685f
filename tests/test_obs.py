"""repro.obs: trace spec grammar, telemetry bus, export, timelines.

The flight recorder's contracts, unit by unit: strict ``--trace``
parsing, channel/flow/link filtering and 1-in-N decimation on the bus,
bounded rings with counted overflow, deterministic JSONL export
(canonical-form validation included), the step-function timeline views,
and the ``REPRO_TRACE`` environment auto-attach that carries tracing
across the sweep-pool boundary.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

import pytest

from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, EcnQueue
from repro.obs import (
    CHANNELS,
    CwndTimeline,
    QueueTimeline,
    Telemetry,
    TraceSpec,
    check_jsonl,
    dump_row,
    load_jsonl,
    validate_row,
    write_jsonl,
)
from repro.obs import capture
from repro.obs.records import RECORD_TYPES, REQUIRED_ROW_KEYS
from repro.sim.kernel import Simulator
from tests.helpers import make_pair


@pytest.fixture(autouse=True)
def clean_capture(monkeypatch):
    """Isolate every test from ambient tracing env and active buses."""
    monkeypatch.delenv(capture.ENV_SPEC, raising=False)
    monkeypatch.delenv(capture.ENV_OUT, raising=False)
    capture.discard_active()
    yield
    capture.discard_active()


class TestTraceSpec:
    def test_all_enables_every_channel(self):
        spec = TraceSpec.parse("all")
        assert spec.channels == frozenset(CHANNELS)
        assert spec.to_string() == "all"
        assert spec.wants_flow(123) and spec.wants_link("anything")

    def test_channel_list_with_decimation(self):
        spec = TraceSpec.parse("cwnd@8,queue,probe")
        assert spec.channels == frozenset({"cwnd", "queue", "probe"})
        assert spec.decimation_for("cwnd") == 8
        assert spec.decimation_for("queue") == 1
        assert not spec.wants_channel("rtt")

    def test_filter_only_spec_enables_everything(self):
        spec = TraceSpec.parse("flow=0,flow=2")
        assert spec.channels == frozenset(CHANNELS)
        assert spec.wants_flow(0) and spec.wants_flow(2)
        assert not spec.wants_flow(1)

    def test_link_globs(self):
        spec = TraceSpec.parse("queue,link=*->frontend")
        assert spec.wants_link("sw->frontend")
        assert not spec.wants_link("server0->sw")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            " , ",
            "cwmd",                # unknown channel
            "cwnd@x",              # non-integer decimation
            "cwnd@0",              # step below 1
            "probe@4",             # event channels are never thinned
            "flow=abc",
            "link=",
        ],
    )
    def test_strict_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            TraceSpec.parse(bad)

    @pytest.mark.parametrize(
        "text", ["all", "cwnd@8,queue,probe", "cwnd,flow=1,flow=3,link=a*"]
    )
    def test_to_string_round_trips(self, text):
        spec = TraceSpec.parse(text)
        assert TraceSpec.parse(spec.to_string()) == spec


class TestTelemetry:
    def test_disabled_channel_is_ignored(self):
        bus = Telemetry(TraceSpec.parse("cwnd"))
        bus.on_cwnd(0.1, 0, 4.0, 64.0)
        bus.on_rtt(0.1, 0, 1e-3)
        assert bus.counts() == {"cwnd": 1}
        assert [r.channel for r in bus.records()] == ["cwnd"]

    def test_flow_filter(self):
        bus = Telemetry(TraceSpec.parse("cwnd,flow=1"))
        bus.on_cwnd(0.1, 1, 2.0, 64.0)
        bus.on_cwnd(0.1, 2, 2.0, 64.0)
        assert [r.flow for r in bus.records("cwnd")] == [1]

    def test_link_filter_applies_to_direct_queue_calls(self):
        bus = Telemetry(TraceSpec.parse("queue,link=a*"))
        bus.on_queue_sample(0.1, "a->b", 3)
        bus.on_queue_sample(0.1, "b->a", 3)
        bus.on_queue_event(0.2, "b->a", "drop", 8)
        assert [r.link for r in bus.records("queue")] == ["a->b"]

    def test_decimation_keeps_first_of_every_n_per_flow(self):
        bus = Telemetry(TraceSpec.parse("cwnd@4"))
        for i in range(8):
            bus.on_cwnd(i * 0.01, 0, float(i), 64.0)
            bus.on_cwnd(i * 0.01, 1, float(100 + i), 64.0)
        # Per-(channel, flow) counters: each flow keeps samples 0 and 4.
        assert [r.cwnd for r in bus.records("cwnd")] == [0.0, 100.0, 4.0, 104.0]

    def test_ring_overflow_evicts_oldest_and_counts(self):
        bus = Telemetry(TraceSpec.parse("cwnd"), capacity=4)
        for i in range(6):
            bus.on_cwnd(i * 0.01, 0, float(i), 64.0)
        assert [r.cwnd for r in bus.records("cwnd")] == [2.0, 3.0, 4.0, 5.0]
        assert bus.overflow["cwnd"] == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Telemetry(capacity=0)

    def test_records_merge_in_emission_order(self):
        bus = Telemetry(TraceSpec.parse("all"))
        bus.on_cwnd(0.1, 0, 2.0, 64.0)
        bus.on_state(0.2, 0, "recovery")
        bus.on_rtt(0.3, 0, 1e-3)
        bus.on_fault(0.4, "link down")
        assert [r.channel for r in bus.records()] == [
            "cwnd", "state", "rtt", "fault",
        ]
        assert [row["ch"] for row in bus.rows()] == [
            "cwnd", "state", "rtt", "fault",
        ]

    def test_clear_resets_buffers_overflow_and_decimation(self):
        bus = Telemetry(TraceSpec.parse("cwnd@2"), capacity=1)
        for i in range(4):
            bus.on_cwnd(i * 0.01, 0, float(i), 64.0)
        bus.clear()
        assert bus.total_records() == 0
        assert bus.overflow["cwnd"] == 0
        bus.on_cwnd(1.0, 0, 9.0, 64.0)  # decimation counter restarted
        assert [r.cwnd for r in bus.records("cwnd")] == [9.0]

    def test_unknown_channel_query_raises(self):
        with pytest.raises(ValueError):
            Telemetry().records("bogus")

    def test_queue_tap_gated_by_channel_and_link(self):
        sim = Simulator()
        assert Telemetry(TraceSpec.parse("cwnd")).queue_tap(sim, "x") is None
        bus = Telemetry(TraceSpec.parse("queue,link=a*"))
        assert bus.queue_tap(sim, "b->a") is None
        assert bus.queue_tap(sim, "a->b") is not None


class TestQueueCauses:
    """Queues report *why* a packet left early through their tap."""

    @staticmethod
    def _tapped(queue_cls, *args):
        sim = Simulator()
        bus = Telemetry(TraceSpec.parse("queue"))
        queue = queue_cls(*args)
        queue.tap = bus.queue_tap(sim, "L")
        return bus, queue

    @staticmethod
    def _pkt(ecn_capable=False):
        return Packet(0, 1, 2, "data", seq=0, ecn_capable=ecn_capable)

    def test_tail_drop_cause(self):
        bus, queue = self._tapped(DropTailQueue, 2)
        for _ in range(3):
            queue.enqueue(self._pkt())
        kinds = [r.kind for r in bus.records("queue")]
        assert kinds == ["drop"]
        assert bus.records("queue")[0].backlog == 2

    def test_resize_eviction_cause(self):
        bus, queue = self._tapped(DropTailQueue, 4)
        for _ in range(4):
            queue.enqueue(self._pkt())
        assert queue.resize(2) == 2
        assert [r.kind for r in bus.records("queue")] == ["evict", "evict"]

    def test_ecn_mark_cause(self):
        bus, queue = self._tapped(EcnQueue, 8, 1)
        queue.enqueue(self._pkt(ecn_capable=True))
        queue.enqueue(self._pkt(ecn_capable=True))  # backlog 1 >= threshold
        assert [r.kind for r in bus.records("queue")] == ["mark"]


class TestExport:
    @staticmethod
    def _rows():
        bus = Telemetry(TraceSpec.parse("all"))
        bus.on_cwnd(0.015625, 3, 4.5, 64.0)
        bus.on_queue_event(0.03125, "sw->fe", "drop", 8)
        bus.on_probe(0.0625, 3, "enter", saved_cwnd=12.0, n_probes=2)
        return bus.rows()

    def test_jsonl_round_trip_and_check(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = self._rows()
        assert write_jsonl(rows, path) == path
        assert load_jsonl(path) == rows
        assert check_jsonl(path) == len(rows)

    def test_identical_rows_are_byte_identical(self, tmp_path):
        a = write_jsonl(self._rows(), tmp_path / "a.jsonl")
        b = write_jsonl(self._rows(), tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_check_rejects_non_canonical_form(self, tmp_path):
        path = tmp_path / "t.jsonl"
        # Same JSON value, but with whitespace: parses, fails round-trip.
        path.write_text(dump_row(self._rows()[0]).replace(",", ", ") + "\n")
        with pytest.raises(ValueError, match="canonical"):
            check_jsonl(path)

    def test_check_rejects_bad_schema_and_bad_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ch":"cwnd","t":0.1}\n')  # missing flow/cwnd keys
        with pytest.raises(ValueError):
            check_jsonl(path)
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="bad JSON"):
            check_jsonl(path)

    def test_validate_row_rejects_unknown_channel(self):
        with pytest.raises(ValueError):
            validate_row({"ch": "nope", "t": 0.0})

    @pytest.mark.parametrize(
        "row, names",
        [
            ({"ch": "queue", "t": 0.1, "link": "a->b", "kind": "bogus",
              "backlog": 3}, ["kind", "early_drop"]),
            ({"ch": "probe", "t": 0.1, "flow": 1, "event": "nope"},
             ["event", "inherit"]),
            ({"ch": "session", "t": 0.1, "session": 1, "event": "nope"},
             ["event", "complete"]),
            ({"ch": "pool", "t": 0.1, "pool": "s0", "event": "nope", "conn": 1},
             ["event", "checkin"]),
            # the fleet's channel is gone with the fleet
            ({"ch": "dispatch", "t": 0.1, "event": "lease"},
             ["unknown trace channel", "'dispatch'"]),
            ({"ch": "fault", "t": True, "fault": "link_down"}, ["'t'"]),
        ],
    )
    def test_validate_row_rejects_out_of_vocabulary_values(self, row, names):
        """``trace --check`` input comes from outside the program: an
        unknown channel, kind/event or a boolean time is a schema error
        naming the offending field and, for a vocabulary, the allowed
        values."""
        with pytest.raises(ValueError) as err:
            validate_row(row)
        for name in names:
            assert name in str(err.value)

    def test_required_keys_are_the_default_less_record_fields(self):
        assert len(RECORD_TYPES) == len(REQUIRED_ROW_KEYS) == len(CHANNELS)
        for cls in RECORD_TYPES:
            required = {f.name for f in fields(cls) if f.default is MISSING}
            assert REQUIRED_ROW_KEYS[cls.channel] == {"ch"} | required
            assert "t" in required


class TestTimelines:
    CWND_ROWS = [
        {"ch": "cwnd", "t": 0.1, "flow": 1, "cwnd": 2.0, "ssthresh": 64.0},
        {"ch": "cwnd", "t": 0.2, "flow": 1, "cwnd": 4.0, "ssthresh": 64.0},
        {"ch": "cwnd", "t": 0.3, "flow": 1, "cwnd": 1.0, "ssthresh": 2.0},
        {"ch": "cwnd", "t": 0.15, "flow": 5, "cwnd": 9.0, "ssthresh": 64.0},
    ]

    def test_cwnd_timeline_defaults_to_lowest_flow(self):
        tl = CwndTimeline.from_rows(self.CWND_ROWS)
        assert tl.flow == 1
        assert len(tl) == 3
        assert (tl.t_start, tl.t_end) == (0.1, 0.3)
        assert (tl.min_cwnd, tl.max_cwnd) == (1.0, 4.0)
        assert (tl.times, tl.cwnd) == ([0.1, 0.2, 0.3], [2.0, 4.0, 1.0])

    def test_cwnd_value_at_is_right_continuous(self):
        tl = CwndTimeline.from_rows(self.CWND_ROWS, flow=1)
        assert tl.value_at(0.05) is None
        assert tl.value_at(0.1) == 2.0
        assert tl.value_at(0.25) == 4.0
        assert tl.value_at(9.9) == 1.0

    def test_cwnd_timeline_errors(self):
        with pytest.raises(ValueError, match="no cwnd records"):
            CwndTimeline.from_rows([{"ch": "rtt", "t": 0.1, "flow": 0, "rtt": 1}])
        with pytest.raises(ValueError, match="flows present"):
            CwndTimeline.from_rows(self.CWND_ROWS, flow=7)

    QUEUE_ROWS = [
        {"ch": "queue", "t": 0.1, "link": "L", "kind": "sample", "backlog": 1},
        {"ch": "queue", "t": 0.2, "link": "L", "kind": "sample", "backlog": 6},
        {"ch": "queue", "t": 0.21, "link": "L", "kind": "drop", "backlog": 8},
        {"ch": "queue", "t": 0.22, "link": "L", "kind": "mark", "backlog": 7},
        {"ch": "queue", "t": 0.3, "link": "M", "kind": "sample", "backlog": 2},
    ]

    def test_queue_timeline_samples_events_and_drops(self):
        tl = QueueTimeline.from_rows(self.QUEUE_ROWS, link="L")
        assert len(tl) == 2
        assert tl.peak_backlog == 6
        assert tl.value_at(0.15) == 1
        assert tl.value_at(0.0) is None
        assert tl.events == [(0.21, "drop", 8), (0.22, "mark", 7)]
        assert tl.drops() == [(0.21, "drop", 8)]  # marks are not losses

    def test_queue_timeline_errors(self):
        with pytest.raises(ValueError, match="no queue records"):
            QueueTimeline.from_rows([])
        with pytest.raises(ValueError, match="links present"):
            QueueTimeline.from_rows(self.QUEUE_ROWS, link="Z")


class TestEnvCapture:
    def test_simulator_without_env_has_no_bus(self):
        assert Simulator().telemetry is None
        assert not capture.tracing_enabled()

    def test_simulator_auto_attaches_from_env(self, monkeypatch):
        monkeypatch.setenv(capture.ENV_SPEC, "cwnd,probe")
        sim = Simulator()
        assert sim.telemetry is not None
        assert sim.telemetry.spec.channels == frozenset({"cwnd", "probe"})
        # ... and the bus is registered for the runner's per-point drain.
        assert capture.drain_active_rows() == []

    def test_explicit_bus_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(capture.ENV_SPEC, "all")
        bus = Telemetry(TraceSpec.parse("cwnd"))
        sim = Simulator(telemetry=bus)
        assert sim.telemetry is bus

    def test_trace_path_shape(self, monkeypatch, tmp_path):
        monkeypatch.setenv(capture.ENV_OUT, str(tmp_path))
        path = capture.trace_path("fig1", "N=60 servers", 7, "deadbeefcafe")
        assert path == tmp_path / "fig1-N=60_servers-seed7-deadbeef.jsonl"
        assert capture.trace_path("fig1", "p", 7).name == "fig1-p-seed7-na.jsonl"

    def test_export_point_trace_disabled_returns_none(self):
        capture.register(Telemetry())
        assert capture.export_point_trace("fig1", "p", 1) is None
        assert capture.drain_active_rows() == []  # discarded, not leaked

    def test_export_point_trace_end_to_end(self, monkeypatch, tmp_path):
        monkeypatch.setenv(capture.ENV_SPEC, "cwnd,queue")
        monkeypatch.setenv(capture.ENV_OUT, str(tmp_path))
        sim, star, source, _sink = make_pair()
        assert sim.telemetry is not None
        source.send_message(25)
        sim.run(until=0.1)
        path = capture.export_point_trace("unit", "p0", 3, "0123456789ab")
        assert path is not None and path.parent == tmp_path
        assert check_jsonl(path) > 0
        rows = load_jsonl(path)
        assert CwndTimeline.from_rows(rows).max_cwnd >= 1.0
        assert {row["ch"] for row in rows} == {"cwnd", "queue"}


class TestInstrumentationEndToEnd:
    def test_loss_scenario_records_every_layer(self, monkeypatch):
        monkeypatch.setenv(capture.ENV_SPEC, "all")
        sim, star, source, _sink = make_pair(buffer_pkts=4)
        bus = sim.telemetry
        source.send_message(120)
        sim.run(until=2.0)
        assert source.all_acked
        rows = bus.rows()
        channels = {row["ch"] for row in rows}
        assert {"cwnd", "rtt", "state", "queue"} <= channels
        # The shallow buffer forces loss; its cause must be on the wire.
        kinds = {row["kind"] for row in rows if row["ch"] == "queue"}
        assert "drop" in kinds
        states = [row["state"] for row in rows if row["ch"] == "state"]
        assert "recovery" in states or "timeout" in states
        drop_links = {
            row["link"]
            for row in rows
            if row["ch"] == "queue" and row["kind"] == "drop"
        }
        tl = QueueTimeline.from_rows(rows, link=sorted(drop_links)[0])
        assert tl.peak_backlog >= 1
        assert tl.drops()

    def test_notify_fault_lands_on_the_bus(self):
        bus = Telemetry(TraceSpec.parse("fault"))
        sim = Simulator(telemetry=bus)
        sim.schedule_at(0.5, sim.notify_fault, "link sw->fe down")
        sim.run()
        (record,) = bus.records("fault")
        assert record.t == 0.5
        assert "down" in record.fault
