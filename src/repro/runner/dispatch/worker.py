"""The dispatch worker: one process, one socket, one point at a time.

A worker is spawned by the dispatcher (or by ``ssh`` on a remote host —
the spawn template decides), dials back to ``--connect host:port``,
introduces itself with a ``hello`` frame, and then loops: receive a
``task`` frame, execute the point via the same
:func:`repro.runner.backends.base.execute_point` path every other
backend uses, reply with a ``result`` or ``error`` frame.  A
``shutdown`` frame (or clean EOF) ends the loop with a ``bye``.

Liveness is a separate concern from progress: a daemon heartbeat thread
sends a ``heartbeat`` frame every ``--heartbeat`` seconds *regardless*
of whether the main thread is computing, so the dispatcher's lease
logic distinguishes "slow point" (heartbeats flowing, lease renewed)
from "dead or wedged worker" (silence past the lease deadline).  Both
threads write frames under one lock — frames must never interleave.

The heartbeat thread doubles as an orphan reaper: if a heartbeat send
fails, the dispatcher is gone (killed, crashed, or unreachable) and
the worker hard-exits rather than computing into the void.  That is
what makes ``kill -9`` of the *dispatcher* safe — the fleet tears
itself down, and a later ``--resume`` run owns the journal alone.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import traceback
from typing import Any, NoReturn, Optional

from repro.runner.backends.base import execute_point, resolve_experiment
from repro.runner.dispatch.frames import (
    FrameError,
    connect_socket,
    decode_payload,
    encode_payload,
    recv_frame,
    send_frame,
)

__all__ = ["main", "run_worker"]


class _FrameWriter:
    """Serialized frame sends shared by the task and heartbeat threads."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()

    def send(self, message: dict[str, Any]) -> None:
        with self._lock:
            send_frame(self._sock, message)


def _heartbeat_loop(
    writer: _FrameWriter, worker: str, interval: float, stop: threading.Event
) -> None:
    """Send ``heartbeat`` frames until stopped; hard-exit on send failure.

    ``os._exit`` (not ``sys.exit``) on purpose: the main thread may be
    deep inside an experiment's compute loop, and a worker whose
    dispatcher is gone must not keep burning CPU on a result nobody
    will ever read.
    """
    while not stop.wait(interval):
        try:
            writer.send({"op": "heartbeat", "worker": worker})
        except OSError:
            os._exit(3)


def _execute_task(task: dict[str, Any]) -> Any:
    """Run one ``task`` frame's point; exceptions propagate to the caller."""
    experiment = resolve_experiment(str(task["experiment"]))
    params = decode_payload(str(task["params"]))
    point = decode_payload(str(task["point"]))
    seed = int(task["seed"])
    digest = str(task.get("params_digest", ""))
    return execute_point(experiment, params, point, seed, digest)


def run_worker(
    host: str, port: int, worker: str, heartbeat: float = 0.5
) -> int:
    """Connect, serve tasks until shutdown/EOF; the process exit code."""
    try:
        sock = connect_socket(host, port)
    except OSError as exc:
        print(f"dispatch worker {worker}: connect failed: {exc}", file=sys.stderr)
        return 2
    writer = _FrameWriter(sock)
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(writer, worker, heartbeat, stop),
        name=f"heartbeat-{worker}",
        daemon=True,
    )
    try:
        writer.send({"op": "hello", "worker": worker, "pid": os.getpid()})
        beat.start()
        while True:
            try:
                frame = recv_frame(sock)
            except FrameError:
                return 1
            if frame is None or frame["op"] == "shutdown":
                if frame is not None:
                    writer.send({"op": "bye", "worker": worker})
                return 0
            if frame["op"] != "task":
                # Dispatcher-only ops arriving here mean a confused peer;
                # drop the frame rather than the connection.
                continue
            task_id = int(frame["task"])
            try:
                value = _execute_task(frame)
            except BaseException as exc:  # noqa: BLE001 - shipped to dispatcher
                writer.send(
                    {
                        "op": "error",
                        "worker": worker,
                        "task": task_id,
                        "error_type": type(exc).__name__,
                        "error": str(exc),
                        "traceback": traceback.format_exc(),
                    }
                )
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    return 1
            else:
                writer.send(
                    {
                        "op": "result",
                        "worker": worker,
                        "task": task_id,
                        "value": encode_payload(value),
                    }
                )
    except OSError:
        return 1
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


def _parse_addr(spec: str) -> tuple[str, int]:
    """Split ``host:port``; the port is mandatory."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"--connect expects host:port, got {spec!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--connect expects a numeric port, got {spec!r}"
        ) from None


def main(argv: Optional[list[str]] = None) -> NoReturn:
    """``python -m repro.runner.dispatch.worker`` entrypoint."""
    parser = argparse.ArgumentParser(
        prog="repro.runner.dispatch.worker",
        description="dispatch fleet worker (spawned by DispatchBackend)",
    )
    parser.add_argument("--connect", type=_parse_addr, required=True)
    parser.add_argument("--worker", required=True)
    parser.add_argument("--heartbeat", type=float, default=0.5)
    args = parser.parse_args(argv)
    # Workers live in their own session (start_new_session at spawn); a
    # terminal ^C goes to the dispatcher, which shuts the fleet down via
    # frames.  Ignoring SIGINT here keeps an interrupted *local* sweep
    # from racing worker deaths against the orderly drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise SystemExit(
        run_worker(
            args.connect[0], args.connect[1], args.worker, args.heartbeat
        )
    )


if __name__ == "__main__":
    main()
