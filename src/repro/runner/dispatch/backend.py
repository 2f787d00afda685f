"""The dispatch backend: fleet mechanics behind the backend protocol.

One :class:`DispatchBackend` is a tiny cluster scheduler behind the
ordinary :class:`~repro.runner.backends.base.SweepBackend` protocol.
``open()`` binds a listener, spawns the fleet described by the host
config (local subprocesses by default; anything the spawn template can
start otherwise), and hands the sockets to a single *reactor* thread.
``submit()`` enqueues a :class:`PointSpec` and returns a real
:class:`concurrent.futures.Future`; the reactor leases each submission
to one idle worker as a ``task`` frame — once — and settles its future
exactly once, from the ``result`` / ``error`` frame or from whatever
ended the lease.

All fleet state — workers, leases, placement memory — is owned by the reactor
thread alone; the only cross-thread traffic is the submit queue, the
stop flag, and settled futures (which are thread-safe by contract).
That single-writer discipline is what keeps the fleet auditable: every
state transition happens in one loop, in one thread, in a deterministic
order.

Failure contract: the reactor *detects* and *reports*; it never
retries.  Worker EOF / torn frame settles the lease's future with
``WorkerLost``, heartbeat silence past ``lease_timeout`` with
``LeaseExpired`` (how a ``SIGSTOP``-wedged or partitioned worker is
survived), an ``error`` frame — or a spec the frame layer cannot encode
— with ``RemoteError`` (:mod:`~repro.runner.dispatch.retry`), each
naming the worker and host.  Whether the point runs again, and whether
two workers agreeing on a failure quarantines it, is decided by
:meth:`repro.runner.engine.SweepRunner._drain`, which resubmits it as a
fresh task; the reactor's part in a retry is to lease that task to a
worker the point has not failed on.  The fleet never judges a host by
its points' failures: a point's own errors are bounded by the engine's
``attempts`` budget, a dying worker by the per-point transient budget,
and a host whose workers never say hello by ``_SPAWN_FAIL_LIMIT``.

Results land in the ordinary sweep journal via the engine, so a
dispatch run killed at any instant resumes under any backend.
"""

from __future__ import annotations

import concurrent.futures
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
from repro.runner.dispatch.hosts import HostSpec, default_hosts
from repro.runner.dispatch.retry import (
    DispatchError,
    LeaseExpired,
    RemoteError,
    WorkerLost,
)

__all__ = ["DispatchBackend"]

#: reactor tick: the cadence of lease and spawn checks.
_TICK_SECONDS = 0.05

#: seconds a spawned worker (or an accepted connection) has to say hello.
_SPAWN_TIMEOUT = 20.0

#: workers per host that may die before hello (spawn error, early exit,
#: no hello in time) before the host is written off for the sweep; when
#: every host is, ``_check_fleet_viability`` fails the open points.
_SPAWN_FAIL_LIMIT = 10

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
        self.task: Optional[_Task] = None


class _Task:
    """Reactor-private record of one submission: leased at most once."""

    __slots__ = ("tid", "spec", "label", "key", "future", "done")

    def __init__(
        self,
        tid: int,
        spec: PointSpec,
        future: "concurrent.futures.Future[Any]",
    ) -> None:
        self.tid = tid
        self.spec = spec
        self.label = str(getattr(spec.point, "label", tid))
        #: the point's identity across resubmissions (see ``_avoid``).
        self.key = (spec.experiment_id, self.label, spec.params_digest)
        self.future = future
        self.done = False


class DispatchBackend(SweepBackend):
    """Multi-host sweep dispatch over the frame protocol."""

    name = "dispatch"
    inline = False

    def __init__(
        self,
        hosts: Optional[list[HostSpec]] = None,
        lease_timeout: float = 10.0,
        heartbeat_interval: float = 0.5,
        quarantine_path: Union[str, Path, None] = None,
        bind_host: str = "127.0.0.1",
        advertise_host: Optional[str] = None,
        pid_file: Union[str, Path, None] = None,
        extra_sys_path: tuple[str, ...] = (),
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
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        #: where the engine records quarantined points (it alone decides
        #: them; the path lives here beside the fleet that has workers
        #: to disagree).
        self.quarantine_path = Path(
            quarantine_path if quarantine_path is not None else "quarantine.jsonl"
        )
        self.bind_host = bind_host
        self.advertise_host = advertise_host or bind_host
        self._pid_file = Path(pid_file) if pid_file is not None else None
        self.extra_sys_path = tuple(extra_sys_path)
        self.log = DispatchLog()

        self._hosts: list[HostSpec] = []
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._waker: Optional[tuple[socket.socket, socket.socket]] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_mode: Optional[str] = None  # None | "wait" | "cancel"
        #: guards ``_submissions`` and ``_accepting`` — a submission is
        #: either refused or certain to be settled by the reactor.
        self._submit_lock = threading.Lock()
        self._accepting = False
        self._submissions: deque[
            tuple[PointSpec, "concurrent.futures.Future[Any]"]
        ] = deque()

        # reactor-owned state (created in open()).
        self._workers: dict[str, _Worker] = {}
        self._pending_socks: dict[socket.socket, float] = {}
        self._tasks: dict[int, _Task] = {}
        self._ready: deque[_Task] = deque()
        #: point key -> workers it already failed on; a resubmission of
        #: the point is leased elsewhere when anyone else is idle.
        self._avoid: dict[tuple[str, str, str], set[str]] = {}
        self._spawn_counter: dict[str, int] = {}
        self._spawn_failures: dict[str, int] = {}
        self._dead_hosts: set[str] = set()
        self._next_tid = 0
        self._roster: list[str] = []

        # counters (reactor-written, read anywhere under the GIL).
        self.lease_expirations = 0
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
        self._spawn_counter = {host.name: 0 for host in self._hosts}
        self._spawn_failures = {host.name: 0 for host in self._hosts}
        self._dead_hosts = set()
        self._workers = {}
        self._pending_socks = {}
        self._tasks = {}
        self._ready = deque()
        self._avoid = {}
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

        self._accepting = True
        self._thread = threading.Thread(
            target=self._reactor, name="dispatch-reactor", daemon=True
        )
        self._thread.start()

    def submit(self, spec: PointSpec) -> "concurrent.futures.Future[Any]":
        """Queue one point for the fleet; resolves to the point's value."""
        future: "concurrent.futures.Future[Any]" = concurrent.futures.Future()
        with self._submit_lock:
            if not self._accepting:
                raise RuntimeError("DispatchBackend.submit while not open")
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
            "duplicate_results": self.duplicate_results,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "workers_spawned": len(self._roster),
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
            self._note_spawn_failure(host.name)
            self.log.emit(
                "worker_dead", worker=worker_name, host=host.name,
                detail=f"spawn failed: {exc}",
            )
            return None
        worker = _Worker(worker_name, host, proc, now + _SPAWN_TIMEOUT)
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

    def _note_spawn_failure(self, host_name: str) -> None:
        """Count a worker lost before hello; write off a host at the limit."""
        self._spawn_failures[host_name] += 1
        if self._spawn_failures[host_name] >= _SPAWN_FAIL_LIMIT:
            self._dead_hosts.add(host_name)

    # ------------------------------------------------------------------
    # the reactor
    # ------------------------------------------------------------------

    def _reactor(self) -> None:
        """Single-threaded fleet event loop; owns all dispatch state."""
        assert self._selector is not None
        cause = "closed"
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
                self._ensure_capacity()
                self._assign()
                self._check_fleet_viability()
                if self._stop_mode == "cancel":
                    break
                if self._stop_mode == "wait" and not self._undone_tasks():
                    break
        except Exception as exc:  # noqa: BLE001 - reported on every open future
            # A reactor bug must surface as failed points, never as a
            # sweep blocked forever on futures nobody will settle.
            cause = f"reactor failed: {type(exc).__name__}: {exc}"
        finally:
            self._teardown(cause)

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
            task = _Task(self._next_tid, spec, future)
            self._next_tid += 1
            self._tasks[task.tid] = task
            self._ready.append(task)

    def _settle(
        self,
        task: _Task,
        value: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Resolve ``task``'s future — the one place, so exactly once.

        A leased task's future is already running; one that never got a
        lease is started here, unless the engine cancelled it first.
        """
        task.done = True
        future = task.future
        if not future.running() and not future.set_running_or_notify_cancel():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)

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
            worker.state = _Worker.DEAD  # clean exit
            self._detach(worker)

    # -- results and failures ------------------------------------------

    def _release(self, worker: _Worker) -> None:
        worker.task = None
        if worker.state == _Worker.BUSY:
            worker.state = _Worker.IDLE

    def _on_result(self, worker: _Worker, frame: dict[str, Any]) -> None:
        task = self._tasks.get(int(frame["task"]))
        if task is None or task.done:
            self._release(worker)
            self.duplicate_results += 1
            return
        try:
            value = decode_payload(str(frame["value"]))
        except Exception as exc:  # noqa: BLE001 - any decode failure
            self._mark_dead(worker, "worker_dead", f"undecodable result: {exc}")
            return
        self._release(worker)
        self.log.emit(
            "result", worker=worker.name, host=worker.host.name,
            point=task.label,
        )
        self._settle(task, value=value)

    def _on_error(self, worker: _Worker, frame: dict[str, Any]) -> None:
        task = self._tasks.get(int(frame["task"]))
        self._release(worker)
        if task is None or task.done:
            self.duplicate_results += 1
            return
        error = RemoteError(
            str(frame.get("error_type", "Exception")),
            str(frame.get("error", "")),
            worker=worker.name,
            host=worker.host.name,
            traceback=str(frame.get("traceback", "")),
        )
        self._avoid.setdefault(task.key, set()).add(worker.name)
        self._settle(task, error=error)

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
        task, worker.task = worker.task, None
        if task is None or task.done:
            return
        lost = WorkerLost
        if event == "expire":
            self.lease_expirations += 1
            lost = LeaseExpired
        self._settle(task, error=lost(worker.name, worker.host.name, detail))

    def _check_spawned(self, now: float) -> None:
        """Catch workers that died (or never dialed in) before hello."""
        for worker in list(self._workers.values()):
            if worker.state != _Worker.SPAWNED:
                continue
            proc = worker.proc
            if proc is not None and proc.poll() is not None:
                worker.state = _Worker.DEAD
                self._note_spawn_failure(worker.host.name)
                self.log.emit(
                    "worker_dead", worker=worker.name, host=worker.host.name,
                    detail=f"exit {proc.returncode} before hello",
                )
            elif now > worker.hello_deadline:
                worker.state = _Worker.DEAD
                self._detach(worker)
                self._note_spawn_failure(worker.host.name)
                self.log.emit(
                    "worker_dead", worker=worker.name, host=worker.host.name,
                    detail="hello timeout",
                )
        for sock, accepted in list(self._pending_socks.items()):
            if now - accepted > _SPAWN_TIMEOUT:
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
                if self._spawn_worker(host, now) is None:
                    break

    def _pick_worker(self, task: _Task) -> Optional[_Worker]:
        """An idle worker for ``task`` that it has not failed on yet.

        While the fleet holds any such worker — busy or still spawning
        included — the task waits for it: a resubmitted failure always
        gets the second opinion that tells a poisoned point from a sick
        worker.  Only a fleet with nobody else left leases it back to a
        worker it failed on.
        """
        avoid = self._avoid.get(task.key, ())
        untried_left = bool(avoid) and any(
            worker.state != _Worker.DEAD and worker.name not in avoid
            for worker in self._workers.values()
        )
        for worker in sorted(self._workers.values(), key=lambda w: w.name):
            if worker.state == _Worker.IDLE and not (
                untried_left and worker.name in avoid
            ):
                return worker
        return None

    def _assign(self) -> None:
        """Lease ready points onto idle workers, FIFO."""
        deferred: deque[_Task] = deque()
        while self._ready:
            task = self._ready.popleft()
            if task.done:
                continue
            if task.future.cancelled():
                task.done = True  # the engine cancelled it before any lease
                continue
            worker = self._pick_worker(task)
            if worker is None:
                deferred.append(task)
                if task.key in self._avoid:
                    continue  # it is being picky; those behind it need not wait
                break
            self._lease(task, worker)
        deferred.extend(self._ready)
        self._ready = deferred

    def _lease(self, task: _Task, worker: _Worker) -> None:
        """Send one task frame and start its future.

        A spec the frame layer cannot encode fails that point alone; a
        send failure is a worker death, and the task — never leased —
        goes back to the head of the queue.
        """
        assert worker.sock is not None
        spec = task.spec
        try:
            frame = {
                "op": "task",
                "task": task.tid,
                "experiment": spec.experiment_id,
                "params": encode_payload(spec.params),
                "point": encode_payload(spec.point),
                "seed": spec.seed,
                "params_digest": spec.params_digest,
            }
        except Exception as exc:  # noqa: BLE001 - whatever pickle raises
            self._settle(
                task,
                error=RemoteError(
                    type(exc).__name__,
                    f"point {task.label!r} cannot be sent to a worker: {exc}",
                ),
            )
            return
        try:
            send_frame(worker.sock, frame)
        except OSError as exc:
            self._mark_dead(worker, "worker_dead", f"task send failed: {exc}")
            self._ready.appendleft(task)
            return
        self.frames_sent += 1
        worker.state = _Worker.BUSY
        worker.task = task
        self.log.emit(
            "lease", worker=worker.name, host=worker.host.name, point=task.label,
        )
        avoided = self._avoid.get(task.key)
        if avoided:
            self.log.emit(
                "retry", worker=worker.name, host=worker.host.name,
                point=task.label, detail=f"failed before on {sorted(avoided)}",
            )
        if not task.future.set_running_or_notify_cancel():
            # Cancelled by the engine as the frame went out: the worker
            # runs it anyway and its frame is counted as a duplicate.
            task.done = True

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
            self._settle(
                task,
                error=DispatchError(
                    f"point {task.label!r}: dispatch fleet unavailable "
                    f"(all {len(self._hosts)} host(s) exhausted "
                    f"{_SPAWN_FAIL_LIMIT} spawn failures)"
                ),
            )

    # -- shutdown ------------------------------------------------------

    def _teardown(self, cause: str) -> None:
        """Reactor exit path: settle futures, stop workers, close sockets."""
        self.log.emit(
            "shutdown", detail=f"{cause}; {len(self._roster)} worker(s) spawned"
        )
        with self._submit_lock:
            self._accepting = False
        self._ingest_submissions()
        for task in self._undone_tasks():
            # An exception, not a bare cancel(): a thread blocked in
            # concurrent.futures.wait only wakes on a notified future.
            self._settle(
                task,
                error=DispatchError(
                    f"point {task.label!r}: dispatcher shut down ({cause})"
                ),
            )
        told: list[_Worker] = []
        for worker in self._workers.values():
            if worker.sock is None:
                # Not connected (yet): it cannot hear a shutdown frame.
                self._detach(worker)
                continue
            try:
                send_frame(worker.sock, {"op": "shutdown"})
                self.frames_sent += 1
                told.append(worker)
            except OSError:  # pragma: no cover - racing worker death
                pass
        # A short grace window lets the workers that were told exit on
        # the shutdown frame instead of eating a SIGKILL from _detach.
        grace_deadline = time.monotonic() + 2.0
        while time.monotonic() < grace_deadline and any(
            worker.proc is not None and worker.proc.poll() is None
            for worker in told
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
