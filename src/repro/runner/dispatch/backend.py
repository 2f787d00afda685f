"""The dispatch backend: leases, classified retry, quarantine, breakers.

One :class:`DispatchBackend` is a tiny cluster scheduler behind the
ordinary :class:`~repro.runner.backends.base.SweepBackend` protocol.
``open()`` binds a listener, spawns the fleet described by the host
config (local subprocesses by default; anything the spawn template can
start otherwise), and hands the sockets to a single *reactor* thread.
``submit()`` enqueues a :class:`PointSpec` and returns a real
:class:`concurrent.futures.Future`; the reactor assigns points to idle
workers as ``task`` frames and resolves futures from ``result`` /
``error`` frames.

All fleet state — workers, leases, retry bookkeeping, breakers — is
owned by the reactor thread alone; the only cross-thread traffic is
the submit queue, the stop flag, and completed futures (which are
thread-safe by contract).  That single-writer discipline is what keeps
the failure handling auditable: every state transition happens in one
loop, in one thread, in a deterministic order.

Fault model (see the package docstring for the full story):

* worker EOF / torn frame / spawn death  → *transient*: the lease is
  re-enqueued on another worker, within ``RetryPolicy.transient_budget``;
* heartbeat silence past ``lease_timeout`` → *lease expiry*: same
  re-enqueue path, separately counted (this is how a ``SIGSTOP``-wedged
  or network-partitioned worker is survived);
* an ``error`` frame → the failure signature is compared across
  workers: a repeat from a *different* worker quarantines the point
  (``quarantine.jsonl``); otherwise it retries with the policy's seeded
  exponential backoff until ``max_attempts``;
* ``breaker_threshold`` consecutive failures on one host → the host is
  drained; after ``breaker_cooldown`` a half-open probe readmits it.

A point that merely runs long is not this module's business: the
engine's ``timeout`` resubmits it as a fresh task, exactly as it does
for a pool point, so a task here holds at most one lease at a time.

Results land in the ordinary sweep journal via the engine, so a
dispatch run killed at any instant resumes under any backend.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import json
import os
import selectors
import socket
import subprocess
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Optional, Union

import repro
from repro.obs.dispatch import DispatchLog
from repro.runner.backends.base import PointSpec, SweepBackend
from repro.runner.dispatch.frames import (
    FrameError,
    decode_payload,
    encode_payload,
    listen_socket,
    recv_frame,
    send_frame,
)
from repro.runner.dispatch.breaker import CircuitBreaker
from repro.runner.dispatch.hosts import HostSpec, default_hosts
from repro.runner.dispatch.retry import (
    BackoffSchedule,
    DispatchError,
    QuarantinedPoint,
    RetryPolicy,
    WorkerLost,
    failure_signature,
)

__all__ = ["DispatchBackend"]

#: env var naming a file that receives ``<worker> <pid>`` lines as the
#: fleet spawns — the seam the chaos harness's worker-killer reads.
PIDFILE_ENV = "REPRO_DISPATCH_PIDFILE"

#: reactor tick: the cadence of lease/backoff checks.
_TICK_SECONDS = 0.05

#: spawn failures tolerated per host before it is written off entirely
#: (breakers handle *transient* host sickness; this bounds a host whose
#: spawn command can never succeed, so the reactor cannot probe forever).
_SPAWN_FAIL_LIMIT = 10

#: error-frame type names treated as environmental rather than the
#: point's own fault (the worker survived to report them, but they
#: describe the world around the experiment, not the experiment).
_TRANSIENT_ERROR_NAMES = frozenset(
    {
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionAbortedError",
        "BrokenPipeError",
        "EOFError",
        "LeaseExpired",
    }
)


class _Worker:
    """Reactor-private record of one fleet member."""

    __slots__ = (
        "name", "host", "proc", "sock", "state", "last_beat",
        "hello_deadline", "task",
    )

    SPAWNED = "spawned"
    IDLE = "idle"
    BUSY = "busy"
    DEAD = "dead"

    def __init__(
        self,
        name: str,
        host: HostSpec,
        proc: Optional["subprocess.Popen[bytes]"],
        hello_deadline: float,
    ) -> None:
        self.name = name
        self.host = host
        self.proc = proc
        self.sock: Optional[socket.socket] = None
        self.state = self.SPAWNED
        self.last_beat = 0.0
        self.hello_deadline = hello_deadline
        self.task: Optional[int] = None


class _Task:
    """Reactor-private record of one submitted point."""

    __slots__ = (
        "tid", "spec", "label", "future", "schedule",
        "failed_attempts", "executions", "transient_retries",
        "failures", "avoid", "lost_workers", "done",
    )

    def __init__(
        self,
        tid: int,
        spec: PointSpec,
        future: "concurrent.futures.Future[tuple[float, Any]]",
        schedule: BackoffSchedule,
    ) -> None:
        self.tid = tid
        self.spec = spec
        self.label = str(getattr(spec.point, "label", tid))
        self.future = future
        self.schedule = schedule
        self.failed_attempts = 0
        self.executions = 0
        self.transient_retries = 0
        #: every error frame seen, for quarantine records.
        self.failures: list[dict[str, str]] = []
        #: workers this point already failed on — avoided when possible.
        self.avoid: set[str] = set()
        self.lost_workers: set[str] = set()
        self.done = False


class DispatchBackend(SweepBackend):
    """Multi-host sweep dispatch over the frame protocol."""

    name = "dispatch"
    inline = False

    def __init__(
        self,
        hosts: Optional[list[HostSpec]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        lease_timeout: float = 10.0,
        heartbeat_interval: float = 0.5,
        spawn_timeout: float = 20.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        quarantine_path: Union[str, Path, None] = None,
        bind_host: str = "127.0.0.1",
        advertise_host: Optional[str] = None,
        pid_file: Union[str, Path, None] = None,
        extra_sys_path: tuple[str, ...] = (),
        log: Optional[DispatchLog] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if heartbeat_interval >= lease_timeout:
            raise ValueError(
                "heartbeat_interval must be < lease_timeout (a healthy "
                "worker must fit several beats inside one lease)"
            )
        self.hosts_config = hosts
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        self.spawn_timeout = spawn_timeout
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.quarantine_path = (
            Path(quarantine_path) if quarantine_path is not None else None
        )
        self.bind_host = bind_host
        self.advertise_host = advertise_host or bind_host
        self._pid_file = Path(pid_file) if pid_file is not None else None
        self.extra_sys_path = tuple(extra_sys_path)
        self.log = log if log is not None else DispatchLog()

        self._hosts: list[HostSpec] = []
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._waker: Optional[tuple[socket.socket, socket.socket]] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_mode: Optional[str] = None  # None | "wait" | "cancel"
        self._submit_lock = threading.Lock()
        self._submissions: deque[
            tuple[PointSpec, "concurrent.futures.Future[tuple[float, Any]]"]
        ] = deque()

        # reactor-owned state (created in open()).
        self._workers: dict[str, _Worker] = {}
        self._pending_socks: dict[socket.socket, float] = {}
        self._tasks: dict[int, _Task] = {}
        self._ready: deque[int] = deque()
        self._delayed: list[tuple[float, int]] = []
        self._breakers: dict[str, CircuitBreaker] = {}
        self._spawn_counter: dict[str, int] = {}
        self._spawn_failures: dict[str, int] = {}
        self._dead_hosts: set[str] = set()
        self._next_tid = 0
        self._roster: list[str] = []

        # counters (reactor-written, read anywhere under the GIL).
        self.lease_expirations = 0
        self.transient_retries = 0
        self.quarantined = 0
        self.duplicate_results = 0
        self.frames_sent = 0
        self.frames_received = 0

    # ------------------------------------------------------------------
    # SweepBackend protocol
    # ------------------------------------------------------------------

    def open(self, max_workers: int) -> None:
        """Bind the listener, spawn the fleet, start the reactor."""
        if self._thread is not None and self._thread.is_alive():
            return  # already open (engine re-dispatch without close)
        self._hosts = list(
            self.hosts_config
            if self.hosts_config is not None
            else default_hosts(max_workers)
        )
        if self._pid_file is None and os.environ.get(PIDFILE_ENV, "").strip():
            self._pid_file = Path(os.environ[PIDFILE_ENV])
        self._breakers = {
            host.name: CircuitBreaker(self.breaker_threshold, self.breaker_cooldown)
            for host in self._hosts
        }
        self._spawn_counter = {host.name: 0 for host in self._hosts}
        self._spawn_failures = {host.name: 0 for host in self._hosts}
        self._dead_hosts = set()
        self._workers = {}
        self._pending_socks = {}
        self._tasks = {}
        self._ready = deque()
        self._delayed = []
        self._stop_mode = None

        self._listener = listen_socket(self.bind_host)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, ("listener",))
        waker_r, waker_w = socket.socketpair()
        waker_r.setblocking(False)
        self._waker = (waker_r, waker_w)
        self._selector.register(waker_r, selectors.EVENT_READ, ("waker",))

        now = time.monotonic()
        for host in self._hosts:
            for _ in range(host.workers):
                self._spawn_worker(host, now)

        self._thread = threading.Thread(
            target=self._reactor, name="dispatch-reactor", daemon=True
        )
        self._thread.start()

    def submit(
        self, spec: PointSpec
    ) -> "concurrent.futures.Future[tuple[float, Any]]":
        """Queue one point for the fleet; resolves to ``(seconds, value)``."""
        if self._thread is None or not self._thread.is_alive():
            raise RuntimeError("DispatchBackend.submit before open()")
        future: "concurrent.futures.Future[tuple[float, Any]]" = (
            concurrent.futures.Future()
        )
        with self._submit_lock:
            self._submissions.append((spec, future))
        self._wake()
        return future

    def close(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Drain (or cancel) the fleet and stop the reactor."""
        thread = self._thread
        if thread is None:
            return
        self._stop_mode = "cancel" if cancel_futures else "wait"
        self._wake()
        if thread.is_alive():
            thread.join(timeout=60.0 if wait else 10.0)
        self._thread = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def address(self) -> str:
        """The dispatcher's ``host:port`` as workers dial it."""
        if self._listener is None:
            raise RuntimeError("DispatchBackend is not open")
        return f"{self.advertise_host}:{self._listener.getsockname()[1]}"

    @property
    def worker_roster(self) -> tuple[str, ...]:
        """Every worker name ever spawned, in spawn order."""
        return tuple(self._roster)

    def collect_stats(self) -> dict[str, int]:
        """Fleet counters the engine folds into :class:`SweepStats`."""
        return {
            "lease_expirations": self.lease_expirations,
            "transient_retries": self.transient_retries,
            "quarantined": self.quarantined,
            "duplicate_results": self.duplicate_results,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "workers_spawned": len(self._roster),
            "breaker_trips": sum(
                breaker.opened_count for breaker in self._breakers.values()
            ),
        }

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------

    def _worker_env(self) -> dict[str, str]:
        """The spawned worker's environment: inherit + importable src."""
        env = dict(os.environ)
        roots = [str(Path(repro.__file__).resolve().parents[1])]
        roots.extend(self.extra_sys_path)
        if env.get("PYTHONPATH"):
            roots.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(roots)
        return env

    def _spawn_worker(self, host: HostSpec, now: float) -> Optional[_Worker]:
        """Start one worker process on ``host``; None on spawn failure."""
        index = self._spawn_counter[host.name]
        self._spawn_counter[host.name] = index + 1
        worker_name = f"{host.name}{index}"
        command = host.command(self.address, worker_name, self.heartbeat_interval)
        try:
            proc = subprocess.Popen(
                command,
                env=self._worker_env(),
                stdout=subprocess.DEVNULL,
                start_new_session=True,
            )
        except OSError as exc:
            self._note_host_failure(host.name, f"spawn failed: {exc}")
            return None
        worker = _Worker(worker_name, host, proc, now + self.spawn_timeout)
        self._workers[worker_name] = worker
        self._roster.append(worker_name)
        self._write_pid(worker_name, proc.pid)
        self.log.emit("spawn", worker=worker_name, host=host.name)
        return worker

    def _write_pid(self, worker_name: str, pid: int) -> None:
        """Append one roster line to the pid file, durably."""
        if self._pid_file is None:
            return
        with open(self._pid_file, "a", encoding="utf-8") as handle:
            handle.write(f"{worker_name} {pid}\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _note_host_failure(self, host_name: str, detail: str) -> None:
        """Record a spawn-level failure against a host's breaker."""
        self._breaker_failure(host_name, detail)
        self._spawn_failures[host_name] += 1
        if self._spawn_failures[host_name] >= _SPAWN_FAIL_LIMIT:
            self._dead_hosts.add(host_name)

    def _breaker_failure(self, host_name: str, detail: str) -> None:
        breaker = self._breakers[host_name]
        was_open = breaker.state == CircuitBreaker.OPEN
        breaker.record_failure()
        if breaker.state == CircuitBreaker.OPEN and not was_open:
            self.log.emit("breaker_open", host=host_name, detail=detail)

    def _breaker_success(self, host_name: str) -> None:
        breaker = self._breakers[host_name]
        if breaker.state != CircuitBreaker.CLOSED:
            self.log.emit("breaker_close", host=host_name)
        breaker.record_success()

    def _breaker_admits(self, host_name: str) -> bool:
        breaker = self._breakers[host_name]
        before = breaker.state
        admitted = breaker.allows()
        if admitted and before == CircuitBreaker.OPEN:
            self.log.emit("breaker_probe", host=host_name)
        return admitted

    # ------------------------------------------------------------------
    # the reactor
    # ------------------------------------------------------------------

    def _reactor(self) -> None:
        """Single-threaded fleet event loop; owns all dispatch state."""
        assert self._selector is not None
        try:
            while True:
                for key, _ in self._selector.select(_TICK_SECONDS):
                    kind = key.data[0]
                    if kind == "listener":
                        self._accept()
                    elif kind == "waker":
                        self._drain_waker()
                    elif kind == "pending":
                        self._service_pending(key.fileobj)  # type: ignore[arg-type]
                    else:
                        self._service_worker(key.data[1])
                now = time.monotonic()
                self._ingest_submissions()
                self._check_spawned(now)
                self._check_leases(now)
                self._promote_delayed(now)
                self._ensure_capacity()
                self._assign()
                self._check_fleet_viability()
                if self._stop_mode == "cancel":
                    break
                if self._stop_mode == "wait" and not self._undone_tasks():
                    break
        finally:
            self._teardown()

    def _wake(self) -> None:
        if self._waker is not None:
            try:
                self._waker[1].send(b"x")
            except OSError:  # pragma: no cover - reactor already gone
                pass

    def _drain_waker(self) -> None:
        assert self._waker is not None
        try:
            while self._waker[0].recv(4096):
                pass
        except BlockingIOError:
            pass

    def _undone_tasks(self) -> list[_Task]:
        return [task for task in self._tasks.values() if not task.done]

    def _ingest_submissions(self) -> None:
        """Move main-thread submissions into reactor-owned task state."""
        while True:
            with self._submit_lock:
                if not self._submissions:
                    return
                spec, future = self._submissions.popleft()
            tid = self._next_tid
            self._next_tid += 1
            key = f"{spec.experiment_id}/{getattr(spec.point, 'label', tid)}"
            task = _Task(tid, spec, future, self.retry_policy.schedule(key))
            self._tasks[tid] = task
            self._ready.append(tid)

    # -- connections ---------------------------------------------------

    def _accept(self) -> None:
        assert self._listener is not None and self._selector is not None
        try:
            conn, _addr = self._listener.accept()
        except OSError:
            return
        conn.settimeout(max(2.0 * self.lease_timeout, 5.0))
        self._pending_socks[conn] = time.monotonic()
        self._selector.register(conn, selectors.EVENT_READ, ("pending", conn))

    def _service_pending(self, sock: socket.socket) -> None:
        """First frame from a fresh connection must be a hello."""
        assert self._selector is not None
        try:
            frame = recv_frame(sock)
        except OSError:
            frame = None
        if frame is None or frame.get("op") != "hello":
            self._drop_pending(sock)
            return
        self.frames_received += 1
        worker = self._workers.get(str(frame.get("worker", "")))
        if worker is None or worker.state != _Worker.SPAWNED:
            self._drop_pending(sock)
            return
        self._pending_socks.pop(sock, None)
        self._selector.modify(sock, selectors.EVENT_READ, ("worker", worker.name))
        worker.sock = sock
        worker.state = _Worker.IDLE
        worker.last_beat = time.monotonic()
        self.log.emit("hello", worker=worker.name, host=worker.host.name)

    def _drop_pending(self, sock: socket.socket) -> None:
        assert self._selector is not None
        self._pending_socks.pop(sock, None)
        try:
            self._selector.unregister(sock)
        except KeyError:  # pragma: no cover - already unregistered
            pass
        try:
            sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def _service_worker(self, worker_name: str) -> None:
        worker = self._workers.get(worker_name)
        if worker is None or worker.sock is None:
            return
        try:
            frame = recv_frame(worker.sock)
        except (FrameError, OSError) as exc:
            self._mark_dead(worker, "worker_dead", str(exc))
            return
        if frame is None:
            self._mark_dead(worker, "worker_dead", "connection closed")
            return
        self.frames_received += 1
        worker.last_beat = time.monotonic()
        op = frame["op"]
        if op == "heartbeat":
            return
        if op == "result":
            self._on_result(worker, frame)
        elif op == "error":
            self._on_error(worker, frame)
        elif op == "bye":
            worker.state = _Worker.DEAD  # clean exit, no breaker charge
            self._detach(worker)

    # -- results and failures ------------------------------------------

    def _release(self, worker: _Worker) -> None:
        worker.task = None
        if worker.state == _Worker.BUSY:
            worker.state = _Worker.IDLE

    def _on_result(self, worker: _Worker, frame: dict[str, Any]) -> None:
        tid = int(frame["task"])
        task = self._tasks.get(tid)
        self._release(worker)
        if task is None or task.done:
            self.duplicate_results += 1
            return
        try:
            value = decode_payload(str(frame["value"]))
            seconds = float(frame["seconds"])
        except Exception as exc:  # noqa: BLE001 - any decode failure
            self._mark_dead(worker, "worker_dead", f"undecodable result: {exc}")
            return
        task.done = True
        self._breaker_success(worker.host.name)
        self.log.emit(
            "result", worker=worker.name, host=worker.host.name,
            point=task.label, attempt=task.executions,
        )
        if not task.future.cancelled():
            task.future.set_result((seconds, value))

    def _on_error(self, worker: _Worker, frame: dict[str, Any]) -> None:
        tid = int(frame["task"])
        task = self._tasks.get(tid)
        self._release(worker)
        if task is None or task.done:
            self.duplicate_results += 1
            return
        error_type = str(frame.get("error_type", "Exception"))
        message = str(frame.get("error", ""))
        signature = failure_signature(error_type, message)
        task.failures.append(
            {
                "worker": worker.name,
                "host": worker.host.name,
                "error_type": error_type,
                "error": message,
                "traceback": str(frame.get("traceback", "")),
                "signature": signature,
            }
        )
        task.avoid.add(worker.name)
        self._breaker_failure(worker.host.name, signature)
        if error_type in _TRANSIENT_ERROR_NAMES:
            self._retry_transient(task, worker.name, signature)
            return
        task.failed_attempts += 1
        repeat_workers = sorted(
            {
                failure["worker"]
                for failure in task.failures
                if failure["signature"] == signature
            }
        )
        if len(repeat_workers) >= 2:
            self._quarantine(task, signature, repeat_workers)
            return
        if self.retry_policy.allows(task.failed_attempts + 1):
            delay = task.schedule.delay(task.failed_attempts)
            heapq.heappush(self._delayed, (time.monotonic() + delay, task.tid))
            self.log.emit(
                "retry", worker=worker.name, point=task.label,
                attempt=task.failed_attempts, detail=f"deterministic +{delay:.3f}s",
            )
            return
        task.done = True
        if not task.future.cancelled():
            task.future.set_exception(
                DispatchError(
                    f"point {task.label!r} failed {task.failed_attempts} "
                    f"attempt(s); last error {signature}"
                )
            )

    def _retry_transient(self, task: _Task, lost_worker: str, detail: str) -> None:
        """Re-enqueue after an environmental failure, within budget."""
        task.lost_workers.add(lost_worker)
        if task.done:
            return  # resolved meanwhile
        if self.retry_policy.allows_transient(task.transient_retries):
            task.transient_retries += 1
            self.transient_retries += 1
            task.avoid.add(lost_worker)
            self._ready.append(task.tid)
            self.log.emit(
                "retry", worker=lost_worker, point=task.label,
                attempt=task.transient_retries, detail=f"transient: {detail}",
            )
            return
        task.done = True
        if not task.future.cancelled():
            task.future.set_exception(
                WorkerLost(
                    task.label,
                    task.transient_retries,
                    tuple(sorted(task.lost_workers)),
                )
            )

    def _quarantine(
        self, task: _Task, signature: str, workers: list[str]
    ) -> None:
        """Same signature from two distinct workers: record and move on."""
        path = self.quarantine_path or Path("quarantine.jsonl")
        record = {
            "schema": "repro-quarantine/1",
            "experiment": task.spec.experiment_id,
            "label": task.label,
            "seed": task.spec.seed,
            "params_digest": task.spec.params_digest,
            "signature": signature,
            "workers": workers,
            "executions": task.executions,
            "failures": [
                {
                    "worker": failure["worker"],
                    "host": failure["host"],
                    "error_type": failure["error_type"],
                    "error": failure["error"],
                    "traceback": failure["traceback"],
                }
                for failure in task.failures
                if failure["signature"] == signature
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.quarantined += 1
        task.done = True
        self.log.emit(
            "quarantine", point=task.label, detail=signature,
            attempt=task.failed_attempts,
        )
        if not task.future.cancelled():
            task.future.set_exception(
                QuarantinedPoint(
                    task.label, signature, tuple(workers), str(path)
                )
            )

    # -- worker death and leases ---------------------------------------

    def _detach(self, worker: _Worker) -> None:
        """Unregister and close a worker's socket; reap its process."""
        assert self._selector is not None
        if worker.sock is not None:
            try:
                self._selector.unregister(worker.sock)
            except KeyError:  # pragma: no cover - already unregistered
                pass
            try:
                worker.sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            worker.sock = None
        if worker.proc is not None and worker.proc.poll() is None:
            try:
                worker.proc.kill()
            except OSError:  # pragma: no cover - already gone
                pass

    def _mark_dead(self, worker: _Worker, event: str, detail: str) -> None:
        """A worker is gone (EOF, torn frame, expired lease, no hello)."""
        if worker.state == _Worker.DEAD:
            return
        worker.state = _Worker.DEAD
        self._detach(worker)
        self.log.emit(
            event, worker=worker.name, host=worker.host.name, detail=detail
        )
        self._breaker_failure(worker.host.name, detail)
        tid = worker.task
        worker.task = None
        if tid is None:
            return
        task = self._tasks.get(tid)
        if task is None:
            return
        if event == "expire":
            self.lease_expirations += 1
        self._retry_transient(task, worker.name, detail)

    def _check_spawned(self, now: float) -> None:
        """Catch workers that died (or never dialed in) before hello."""
        for worker in list(self._workers.values()):
            if worker.state != _Worker.SPAWNED:
                continue
            proc = worker.proc
            if proc is not None and proc.poll() is not None:
                worker.state = _Worker.DEAD
                self._note_host_failure(
                    worker.host.name,
                    f"{worker.name} exited {proc.returncode} before hello",
                )
                self.log.emit(
                    "worker_dead", worker=worker.name, host=worker.host.name,
                    detail=f"exit {proc.returncode} before hello",
                )
            elif now > worker.hello_deadline:
                worker.state = _Worker.DEAD
                self._detach(worker)
                self._note_host_failure(
                    worker.host.name, f"{worker.name} never sent hello"
                )
                self.log.emit(
                    "worker_dead", worker=worker.name, host=worker.host.name,
                    detail="hello timeout",
                )
        for sock, accepted in list(self._pending_socks.items()):
            if now - accepted > self.spawn_timeout:
                self._drop_pending(sock)

    def _check_leases(self, now: float) -> None:
        """Silence past the lease deadline forfeits leases (and workers)."""
        for worker in list(self._workers.values()):
            if worker.state not in (_Worker.IDLE, _Worker.BUSY):
                continue
            if now - worker.last_beat > self.lease_timeout:
                self._mark_dead(
                    worker,
                    "expire",
                    f"no heartbeat for {now - worker.last_beat:.2f}s "
                    f"(lease_timeout={self.lease_timeout})",
                )

    def _promote_delayed(self, now: float) -> None:
        while self._delayed and self._delayed[0][0] <= now:
            _, tid = heapq.heappop(self._delayed)
            self._ready.append(tid)

    # -- capacity and assignment ---------------------------------------

    def _live_count(self, host_name: str) -> int:
        return sum(
            1
            for worker in self._workers.values()
            if worker.host.name == host_name and worker.state != _Worker.DEAD
        )

    def _ensure_capacity(self) -> None:
        """Respawn toward each host's configured size while work remains."""
        if self._stop_mode is not None or not self._undone_tasks():
            return
        now = time.monotonic()
        for host in self._hosts:
            if host.name in self._dead_hosts:
                continue
            while self._live_count(host.name) < host.workers:
                if not self._breaker_admits(host.name):
                    break
                if self._spawn_worker(host, now) is None:
                    break

    def _pick_worker(self, task: _Task) -> Optional[_Worker]:
        """An idle worker for ``task``, preferring untried ones."""
        idle = sorted(
            (
                worker
                for worker in self._workers.values()
                if worker.state == _Worker.IDLE
            ),
            key=lambda worker: worker.name,
        )
        for strict in (True, False):
            for worker in idle:
                if strict and worker.name in task.avoid:
                    continue
                if not self._breaker_admits(worker.host.name):
                    continue
                return worker
        return None

    def _assign(self) -> None:
        """Lease ready points onto idle workers, FIFO."""
        deferred: deque[int] = deque()
        while self._ready:
            tid = self._ready.popleft()
            task = self._tasks.get(tid)
            if task is None or task.done or task.future.cancelled():
                if task is not None and not task.done:
                    task.done = True  # cancelled before any lease
                continue
            worker = self._pick_worker(task)
            if worker is None:
                deferred.append(tid)
                break
            self._lease(task, worker)
        deferred.extend(self._ready)
        self._ready = deferred

    def _lease(self, task: _Task, worker: _Worker) -> None:
        """Send one task frame; a send failure is a worker death."""
        assert worker.sock is not None
        spec = task.spec
        frame = {
            "op": "task",
            "task": task.tid,
            "experiment": spec.experiment_id,
            "params": encode_payload(spec.params),
            "point": encode_payload(spec.point),
            "seed": spec.seed,
            "params_digest": spec.params_digest,
        }
        try:
            send_frame(worker.sock, frame)
        except OSError as exc:
            self._mark_dead(worker, "worker_dead", f"task send failed: {exc}")
            if not task.done and task.tid not in self._ready:
                # _mark_dead only re-enqueues leased tasks; this one was
                # never leased, so put it straight back.
                self._ready.appendleft(task.tid)
            return
        self.frames_sent += 1
        worker.state = _Worker.BUSY
        worker.task = task.tid
        task.executions += 1
        self.log.emit(
            "lease", worker=worker.name, host=worker.host.name,
            point=task.label, attempt=task.executions,
        )

    def _check_fleet_viability(self) -> None:
        """Fail outstanding work when no host can ever run it again."""
        undone = self._undone_tasks()
        if not undone:
            return
        if len(self._dead_hosts) < len(self._hosts):
            return
        if any(
            worker.state in (_Worker.SPAWNED, _Worker.IDLE, _Worker.BUSY)
            for worker in self._workers.values()
        ):
            return
        for task in undone:
            task.done = True
            if not task.future.cancelled():
                task.future.set_exception(
                    DispatchError(
                        f"point {task.label!r}: dispatch fleet unavailable "
                        f"(all {len(self._hosts)} host(s) exhausted "
                        f"{_SPAWN_FAIL_LIMIT} spawn failures)"
                    )
                )

    # -- shutdown ------------------------------------------------------

    def _teardown(self) -> None:
        """Reactor exit path: settle futures, stop workers, close sockets."""
        for task in self._tasks.values():
            if task.done:
                continue
            task.done = True
            if not task.future.cancel() and not task.future.cancelled():
                task.future.set_exception(
                    DispatchError(
                        f"point {task.label!r}: dispatcher shut down"
                    )
                )
        for worker in self._workers.values():
            if worker.sock is not None:
                try:
                    send_frame(worker.sock, {"op": "shutdown"})
                    self.frames_sent += 1
                except OSError:  # pragma: no cover - racing worker death
                    pass
        # A short grace window lets idle workers exit on the shutdown
        # frame instead of eating a SIGKILL from _detach below.
        grace_deadline = time.monotonic() + 2.0
        while time.monotonic() < grace_deadline and any(
            worker.proc is not None and worker.proc.poll() is None
            for worker in self._workers.values()
        ):
            time.sleep(0.02)
        for worker in self._workers.values():
            self._detach(worker)
            worker.state = _Worker.DEAD
        # _detach kills, but only a wait() collects the exit status —
        # without it every worker lingers as a zombie for the life of
        # the dispatching process.
        for worker in self._workers.values():
            proc = worker.proc
            if proc is None:
                continue
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - kill-proof
                proc.kill()
                proc.wait(timeout=5.0)
        for sock in list(self._pending_socks):
            self._drop_pending(sock)
        self.log.emit("shutdown", detail=f"{len(self._roster)} worker(s) spawned")
        assert self._selector is not None
        if self._listener is not None:
            try:
                self._selector.unregister(self._listener)
            except KeyError:  # pragma: no cover
                pass
            self._listener.close()
            self._listener = None
        if self._waker is not None:
            for end in self._waker:
                try:
                    self._selector.unregister(end)
                except KeyError:
                    pass
                end.close()
            self._waker = None
        self._selector.close()
        self._selector = None
