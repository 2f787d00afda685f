"""End-to-end tests for the dispatch backend's fleet behavior.

Each test runs a real sweep through real worker subprocesses, using the
failure-injection toys in ``dispatch_toys.py`` (importable by workers
via ``extra_sys_path``).  Covered here: byte-identical equivalence with
the serial backend, transient retry after a worker crash, deterministic
retry of a flaky point, quarantine after two distinct workers agree on
a failure, lease expiry for a SIGSTOPped worker, the engine's timeout
resubmission of an overdue point, the one-rule-on-every-backend
contract, reactor failures that must not hang the sweep, hosts that
cannot start a worker, a prompt close, and the stats/roster/telemetry
plumbing.  The full chaos storm (many kills, dispatcher kill -9 +
resume) lives in test_dispatch_chaos.py.
"""

import concurrent.futures
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

TESTS_DIR = str(Path(__file__).resolve().parent)
# The toys must import as top-level ``dispatch_toys`` — the same name
# workers resolve via ``extra_sys_path`` — so params pickled here
# unpickle there.  (``tests`` is a package, so pytest would otherwise
# import them as ``tests.dispatch_toys``.)
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)
import dispatch_toys  # noqa: E402

from repro.experiments.base import Point  # noqa: E402
from repro.experiments.store import to_jsonable  # noqa: E402
from repro.runner import RetryPolicy, SweepCheckpoint, SweepRunner  # noqa: E402
from repro.runner.backends import PointSpec  # noqa: E402
from repro.runner.dispatch.backend import DispatchBackend  # noqa: E402
from repro.runner.dispatch.frames import (  # noqa: E402
    decode_payload,
    encode_payload,
    listen_socket,
    recv_frame,
    send_frame,
)
from repro.runner.dispatch.hosts import HostSpec  # noqa: E402
from repro.runner.dispatch.worker import run_worker  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

#: a host whose every worker exits before it can say hello.
BAD_SPAWN = ("{python}", "-c", "raise SystemExit(3)")


def _backend(tmp_path, **overrides):
    kwargs = dict(
        lease_timeout=5.0,
        heartbeat_interval=0.25,
        quarantine_path=tmp_path / "quarantine.jsonl",
        pid_file=tmp_path / "workers.pid",
        extra_sys_path=(TESTS_DIR,),
    )
    kwargs.update(overrides)
    return DispatchBackend(**kwargs)


def _run(experiment, params, backend, journal, jobs=2, seed=3, **runner_kw):
    runner = SweepRunner(
        jobs=jobs,
        cache=None,
        backend=backend,
        checkpoint=SweepCheckpoint(journal),
        **runner_kw,
    )
    payload = runner.run(experiment, params, seed=seed)
    return payload, runner.last_stats


def _journal_point_lines(path):
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line and '"result"' in line
    ]
    return sorted(lines)


def _pids(pid_file):
    """{worker name: pid} from the backend's pid file."""
    table = {}
    for line in Path(pid_file).read_text().splitlines():
        name, _, pid = line.partition(" ")
        if pid.strip().isdigit():
            table[name] = int(pid)
    return table


class TestEquivalence:
    def test_payload_and_journal_byte_identical_to_serial(self, tmp_path):
        params = dispatch_toys.ToyParams(n_points=6)
        serial_journal = tmp_path / "serial.jsonl"
        ref_payload, ref_stats = _run(
            dispatch_toys.ECHO, params, "serial", serial_journal
        )

        dispatch_journal = tmp_path / "dispatch.jsonl"
        backend = _backend(tmp_path)
        payload, stats = _run(
            dispatch_toys.ECHO, params, backend, dispatch_journal
        )
        assert to_jsonable(payload) == to_jsonable(ref_payload)
        # Journal records hold base64 pickles: byte-identical lines mean
        # the results that crossed the wire are byte-identical, not
        # merely equal after unpickling.
        assert _journal_point_lines(dispatch_journal) == _journal_point_lines(
            serial_journal
        )
        assert stats.failures == []
        assert stats.backend == "dispatch"

    def test_result_frame_carries_the_value_alone(self):
        # Play the dispatcher against the real worker loop, in a thread.
        # A 60 s heartbeat is never due (nor fails) while the test runs.
        listener = listen_socket()
        listener.settimeout(10.0)
        worker = threading.Thread(
            target=run_worker,
            args=("127.0.0.1", listener.getsockname()[1], "w0", 60.0),
            daemon=True,
        )
        worker.start()
        conn, _ = listener.accept()
        params = dispatch_toys.ToyParams()
        point = dispatch_toys.ECHO.points(params)[0]
        try:
            assert recv_frame(conn)["op"] == "hello"
            send_frame(conn, {
                "op": "task", "task": 5, "experiment": dispatch_toys.ECHO.id,
                "params": encode_payload(params),
                "point": encode_payload(point), "seed": 3,
            })
            frame = recv_frame(conn)
            send_frame(conn, {"op": "shutdown"})
            assert recv_frame(conn)["op"] == "bye"
        finally:
            worker.join(10.0)
            conn.close()
            listener.close()
        assert not worker.is_alive()
        assert sorted(frame) == ["op", "task", "value", "worker"]
        assert frame["task"] == 5
        assert decode_payload(frame["value"]) == {
            "label": point.label, "seed": 3, "pid": None
        }

    def test_journal_header_records_worker_roster(self, tmp_path):
        params = dispatch_toys.ToyParams(n_points=3)
        journal = tmp_path / "sweep.jsonl"
        backend = _backend(tmp_path)
        _run(dispatch_toys.ECHO, params, backend, journal)
        header = json.loads(Path(journal).read_text().splitlines()[0])
        workers = header.get("workers", [])
        assert workers, "journal header should carry the fleet roster"
        assert set(workers) <= set(backend.worker_roster)

    def test_collect_stats_and_log_cover_the_run(self, tmp_path):
        params = dispatch_toys.ToyParams(n_points=4)
        backend = _backend(tmp_path)
        _, stats = _run(
            dispatch_toys.ECHO, params, backend, tmp_path / "sweep.jsonl"
        )
        collected = backend.collect_stats()
        assert collected["workers_spawned"] >= 2
        # One task + one result frame per point is the floor.
        assert collected["frames_sent"] >= 4
        assert collected["frames_received"] >= 4
        counts = backend.log.counts()
        for event in ("spawn", "hello", "lease", "result", "shutdown"):
            assert counts.get(event, 0) >= 1, f"no {event!r} events logged"
        assert counts["result"] >= 4


class TestFailureClasses:
    def test_worker_crash_is_a_transient_retry(self, tmp_path):
        params = dispatch_toys.ToyParams(
            n_points=5, state_dir=str(tmp_path), labels=("p1",)
        )
        backend = _backend(tmp_path)
        payload, stats = _run(
            dispatch_toys.CRASH, params, backend, tmp_path / "sweep.jsonl"
        )
        assert stats.failures == []
        assert len(payload) == 5
        assert stats.transient_retries >= 1
        assert backend.log.counts().get("worker_dead", 0) >= 1

    def test_flaky_point_retries_deterministically_then_succeeds(self, tmp_path):
        params = dispatch_toys.ToyParams(
            n_points=4, state_dir=str(tmp_path), labels=("p2",)
        )
        backend = _backend(tmp_path)
        payload, stats = _run(
            dispatch_toys.FLAKY, params, backend, tmp_path / "sweep.jsonl"
        )
        assert stats.failures == []
        assert len(payload) == 4
        retries = [
            record
            for record in backend.log.records()
            if record.event == "retry" and record.point == "p2"
        ]
        assert retries, "the flaky failure should appear as a retry event"

    def test_quarantine_after_two_distinct_workers_agree(self, tmp_path):
        params = dispatch_toys.ToyParams(
            n_points=5, state_dir=str(tmp_path), labels=("p3",)
        )
        quarantine = tmp_path / "quarantine.jsonl"
        backend = _backend(tmp_path)
        payload, stats = _run(
            dispatch_toys.POISON, params, backend, tmp_path / "sweep.jsonl",
            retry_policy=RetryPolicy(max_attempts=4),
        )
        # The sweep completes: the other four points all have results.
        assert sum(1 for item in payload if item is not None) == 4
        assert stats.errors == 1
        assert stats.quarantined == 1
        assert len(stats.failures) == 1
        assert stats.failures[0].kind == "quarantined"
        assert stats.failures[0].label == "p3"

        records = [
            json.loads(line)
            for line in quarantine.read_text().splitlines()
            if line
        ]
        assert len(records) == 1
        record = records[0]
        assert record["schema"] == "repro-quarantine/1"
        assert record["label"] == "p3"
        assert record["signature"] == "ValueError: poison p3"
        assert len(record["workers"]) == 2
        assert len(set(record["workers"])) == 2, "workers must be distinct"
        assert len(record["failures"]) >= 2
        for failure in record["failures"]:
            assert "Traceback" in failure["traceback"]
            assert failure["error_type"] == "ValueError"

    def test_overdue_point_is_resubmitted_by_engine_alone(self, tmp_path):
        # p1 stalls on its *first* execution only; the engine's timeout
        # resubmits it and the retry finds the marker file and returns
        # at once.  The reactor must not launch a twin of its own: one
        # owner of straggler policy means at most max_attempts runs.
        stall_s = 3.0
        params = dispatch_toys.ToyParams(
            n_points=4, state_dir=str(tmp_path), labels=("p1",),
            sleep_s=stall_s,
        )
        started = time.monotonic()
        payload, stats = _run(
            dispatch_toys.STALL, params, _backend(tmp_path),
            tmp_path / "sweep.jsonl", timeout=1.0,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        elapsed = time.monotonic() - started
        runs = (tmp_path / "p1.runs").read_text().splitlines()
        assert len(runs) <= 2  # max_attempts bounds executions in total
        assert stats.failures == []
        assert payload == SweepRunner(backend="serial").run(
            dispatch_toys.STALL, params, seed=3
        )
        # The straggler is waited out like a pool straggler (its late
        # success is a counted duplicate) — never the 60 s close
        # timeout, never a lease expiry.
        assert elapsed < stall_s + 10.0
        assert stats.duplicate_results >= 1
        assert stats.lease_expirations == 0
        # Nothing failed by timing out, and nobody else counts timeouts.
        assert stats.timeouts == 0


@pytest.mark.parametrize("kind", ["serial", "process", "dispatch"])
class TestOneRuleThreeBackends:
    """What happens to a failing point does not depend on the backend."""

    @staticmethod
    def _runner(kind, tmp_path):
        backend = _backend(tmp_path) if kind == "dispatch" else kind
        return SweepRunner(jobs=2, backend=backend)

    def test_poisoned_point_fails_alike(self, kind, tmp_path):
        params = dispatch_toys.ToyParams(n_points=4, labels=("p2",))
        runner = self._runner(kind, tmp_path)
        with pytest.warns(RuntimeWarning, match="failed"):
            payload = runner.run(dispatch_toys.POISON, params, seed=3)
        assert [item and item["label"] for item in payload] == [
            "p0", "p1", None, "p3"
        ]
        [failure] = runner.last_stats.failures
        assert failure.label == "p2"
        assert failure.attempts == 2
        assert failure.error == "ValueError: poison p2"
        # Only a fleet has two workers to disagree with each other.
        assert failure.kind == (
            "quarantined" if kind == "dispatch" else "deterministic"
        )

    def test_every_point_poisoned_fails_alike_and_promptly(self, kind, tmp_path):
        labels = ("p0", "p1", "p2", "p3")
        params = dispatch_toys.ToyParams(n_points=4, labels=labels)
        runner = self._runner(kind, tmp_path)
        started = time.monotonic()
        with pytest.warns(RuntimeWarning, match="failed"):
            payload = runner.run(dispatch_toys.POISON, params, seed=3)
        elapsed = time.monotonic() - started
        assert payload == [None] * 4
        failures = sorted(runner.last_stats.failures, key=lambda f: f.label)
        assert [failure.label for failure in failures] == list(labels)
        for failure in failures:
            assert failure.attempts == 2
            assert failure.error == f"ValueError: poison {failure.label}"
            assert failure.kind == (
                "quarantined" if kind == "dispatch" else "deterministic"
            )
        # Eight failures in a row say nothing about the host: a fleet
        # that idled 5 s after three of them would miss this bound.
        assert elapsed < 5.0

    def test_flaky_point_succeeds_on_its_second_execution(self, kind, tmp_path):
        params = dispatch_toys.ToyParams(
            n_points=4, state_dir=str(tmp_path), labels=("p2",)
        )
        runner = self._runner(kind, tmp_path)
        payload = runner.run(dispatch_toys.FLAKY, params, seed=3)
        assert [item["label"] for item in payload] == ["p0", "p1", "p2", "p3"]
        assert runner.last_stats.failures == []
        assert (tmp_path / "p2.failed").exists()

    def test_unpicklable_point_is_rejected_before_any_point_runs(
        self, kind, tmp_path
    ):
        params = dispatch_toys.ToyParams(
            n_points=4, state_dir=str(tmp_path), labels=("p2",)
        )
        runner = self._runner(kind, tmp_path)
        with pytest.raises(TypeError) as info:
            runner.run(dispatch_toys.UNPICKLABLE, params, seed=3)
        message = str(info.value)
        assert message.startswith(
            "dispatch_toys:UNPICKLABLE/p2: point cannot be sent to a worker ("
        )
        assert "pickle" in message.lower()  # the pickling error itself
        assert list(tmp_path.glob("*.runs")) == []  # not even p0 ran


def _within(seconds, sweep):
    """Run ``sweep`` on a thread; fail instead of hanging with it."""
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(value=sweep()), daemon=True
    )
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"sweep still running after {seconds}s"
    return outcome["value"]


@pytest.mark.filterwarnings("ignore:.*sweep point.*failed:RuntimeWarning")
class TestReactorNeverHangsTheSweep:
    def test_unencodable_spec_fails_that_point_alone(self, tmp_path):
        # SweepRunner rejects such a sweep before dispatching it; the
        # reactor's own guard keeps a direct submit from wedging the fleet.
        params = dispatch_toys.ToyParams()
        points = [
            Point(p.label, {"fn": lambda: 0}) if p.label in ("p1", "p2") else p
            for p in dispatch_toys.ECHO.points(params)
        ]
        backend = _backend(tmp_path)
        backend.open(2)
        try:
            futures = [
                backend.submit(PointSpec(
                    experiment=dispatch_toys.ECHO,
                    experiment_id=dispatch_toys.ECHO.id,
                    params=params,
                    point=point,
                    seed=3,
                ))
                for point in points
            ]
            _within(20.0, lambda: concurrent.futures.wait(futures))
        finally:
            backend.close()
        assert [f.result()["label"] for f in (futures[0], futures[3])] == [
            "p0", "p3"
        ]
        for label, future in zip(("p1", "p2"), futures[1:3]):
            error = str(future.exception())
            assert label in error  # names the point...
            assert "pickle" in error.lower()  # ...and the cause
        # The reactor outlived both bad points and closed in order.
        assert "closed" in backend.log.records()[-1].detail

    def test_reactor_crash_fails_the_open_points(self, tmp_path, monkeypatch):
        assign = DispatchBackend._assign

        def crashing_assign(self):
            if self.log.counts().get("result", 0) >= 2:  # mid-sweep
                raise RuntimeError("reactor bug")
            assign(self)

        monkeypatch.setattr(DispatchBackend, "_assign", crashing_assign)
        params = dispatch_toys.ToyParams(n_points=6)
        backend = _backend(tmp_path)
        payload, stats = _within(20.0, lambda: _run(
            dispatch_toys.ECHO, params, backend, tmp_path / "sweep.jsonl"
        ))
        assert stats.failures, "a dead reactor cannot have run every point"
        assert len(stats.failures) + sum(
            1 for item in payload if item is not None
        ) == 6
        shutdown = backend.log.records()[-1]
        assert shutdown.event == "shutdown"
        assert "RuntimeError: reactor bug" in shutdown.detail


class TestHostHealth:
    """A host that cannot start workers is written off; nothing else is."""

    def test_fleet_whose_only_host_cannot_spawn_fails_every_point(
        self, tmp_path
    ):
        backend = _backend(tmp_path, hosts=[HostSpec("bad", 2, BAD_SPAWN)])
        params = dispatch_toys.ToyParams(n_points=4)
        started = time.monotonic()
        with pytest.warns(RuntimeWarning, match="failed"):
            payload, stats = _run(
                dispatch_toys.ECHO, params, backend, tmp_path / "sweep.jsonl"
            )
        elapsed = time.monotonic() - started
        assert payload == [None] * 4
        assert len(stats.failures) == 4
        for failure in stats.failures:
            assert "dispatch fleet unavailable" in failure.error
        assert backend.log.counts().get("hello", 0) == 0
        assert elapsed < 5.0

    def test_good_host_carries_the_sweep_beside_a_bad_one(self, tmp_path):
        params = dispatch_toys.ToyParams(n_points=6)
        backend = _backend(
            tmp_path,
            hosts=[HostSpec("good", 2), HostSpec("bad", 1, BAD_SPAWN)],
        )
        payload, stats = _run(
            dispatch_toys.ECHO, params, backend, tmp_path / "sweep.jsonl"
        )
        assert stats.failures == []
        assert payload == SweepRunner(backend="serial").run(
            dispatch_toys.ECHO, params, seed=3
        )
        hosts_that_said_hello = {
            record.host
            for record in backend.log.records()
            if record.event == "hello"
        }
        assert hosts_that_said_hello == {"good"}


class TestLeaseExpiry:
    def test_sigstopped_worker_loses_its_lease(self, tmp_path):
        # One worker takes p0, writes its marker, then sleeps.  We
        # freeze that worker with SIGSTOP — its heartbeat thread stops
        # with it — so the lease expires and the point is retried on a
        # respawned worker, which finds the marker and returns fast.
        params = dispatch_toys.ToyParams(
            n_points=3, state_dir=str(tmp_path), labels=("p0",), sleep_s=60.0
        )
        pid_file = tmp_path / "workers.pid"
        backend = _backend(
            tmp_path, lease_timeout=1.5, heartbeat_interval=0.25,
            pid_file=pid_file,
        )
        marker = tmp_path / "p0.stalled"
        stopped = []

        def _freeze_when_stalled():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not marker.exists():
                time.sleep(0.02)
            assert marker.exists(), "stall marker never appeared"
            victim = int(marker.read_text() or "0")
            if not victim:
                # marker written but pid not yet flushed; re-read briefly
                time.sleep(0.1)
                victim = int(marker.read_text())
            os.kill(victim, signal.SIGSTOP)
            stopped.append(victim)

        freezer = threading.Thread(target=_freeze_when_stalled)
        freezer.start()
        try:
            payload, stats = _run(
                dispatch_toys.STALL, params, backend,
                tmp_path / "sweep.jsonl", jobs=2,
            )
        finally:
            freezer.join(timeout=30.0)
            for victim in stopped:
                try:
                    os.kill(victim, signal.SIGCONT)
                    os.kill(victim, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert stats.failures == []
        assert len(payload) == 3
        assert stats.lease_expirations >= 1
        assert stats.transient_retries >= 1
        assert backend.log.counts().get("expire", 0) >= 1


class TestReuseAndShutdown:
    def test_backend_is_reopenable_for_a_second_sweep(self, tmp_path):
        backend = _backend(tmp_path)
        params = dispatch_toys.ToyParams(n_points=3)
        first, stats1 = _run(
            dispatch_toys.ECHO, params, backend, tmp_path / "first.jsonl"
        )
        second, stats2 = _run(
            dispatch_toys.ECHO, params, backend, tmp_path / "second.jsonl"
        )
        assert to_jsonable(first) == to_jsonable(second)
        assert stats1.failures == stats2.failures == []

    def test_crash_sweep_closes_promptly(self, tmp_path, monkeypatch):
        # The last point kills its worker; its retry finishes on the
        # other one while the replacement is typically still starting.
        # That replacement cannot hear a shutdown frame, so close must
        # kill it at once instead of waiting out the grace window.
        closes = []
        close = DispatchBackend.close

        def timed_close(self, *args, **kwargs):
            started = time.monotonic()
            close(self, *args, **kwargs)
            closes.append(time.monotonic() - started)

        monkeypatch.setattr(DispatchBackend, "close", timed_close)
        params = dispatch_toys.ToyParams(
            n_points=5, state_dir=str(tmp_path), labels=("p4",)
        )
        _, stats = _run(
            dispatch_toys.CRASH, params, _backend(tmp_path),
            tmp_path / "sweep.jsonl",
        )
        assert stats.failures == []
        assert stats.transient_retries >= 1
        assert closes and max(closes) < 1.0

    def test_close_reaps_every_spawned_worker(self, tmp_path):
        pid_file = tmp_path / "workers.pid"
        backend = _backend(tmp_path, pid_file=pid_file)
        params = dispatch_toys.ToyParams(n_points=3)
        _run(dispatch_toys.ECHO, params, backend, tmp_path / "sweep.jsonl")
        deadline = time.monotonic() + 10.0
        live = dict(_pids(pid_file))
        while time.monotonic() < deadline and live:
            for name, pid in list(live.items()):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    live.pop(name)
            time.sleep(0.05)
        assert not live, f"workers still alive after close: {sorted(live)}"
