"""The dispatch wire protocol: length-prefixed JSON frames.

Every message between the dispatcher and a worker is one *frame*::

    +----------------+----------------------------------------+
    | length (u32 BE)| UTF-8 JSON object, exactly length bytes|
    +----------------+----------------------------------------+

The JSON object always carries an ``"op"`` key naming the message type
(see :data:`OPS`); everything else is op-specific.  Bulk values —
pickled params, points, and results — ride inside the JSON as base64
strings (:func:`encode_payload` / :func:`decode_payload`), the same
encoding the checkpoint journal uses, so a result that crossed the wire
is byte-identical to one produced inline.

The frame grammar is deliberately tiny and self-delimiting: a reader
needs no lookahead beyond the 4-byte prefix, a torn connection
surfaces as a short read (``None`` from :func:`recv_frame` at a frame
boundary, :class:`FrameError` inside one), and an insane length prefix
(corruption, protocol mismatch) is rejected before any allocation via
:data:`MAX_FRAME_BYTES`.

This module is also the only sanctioned home of raw socket
construction (simlint SIM017): :func:`listen_socket` and
:func:`connect_socket` wrap the two shapes the dispatcher and workers
need, so every other module talks in frames, never in sockets.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
from typing import Any, Optional

__all__ = [
    "FrameError",
    "MAX_FRAME_BYTES",
    "OPS",
    "connect_socket",
    "decode_payload",
    "encode_payload",
    "listen_socket",
    "recv_frame",
    "send_frame",
]

#: hard ceiling on one frame's JSON body.  Large enough for multi-MB
#: pickled payloads after base64 expansion, small enough that a
#: corrupted length prefix cannot trigger a gigabyte allocation.
MAX_FRAME_BYTES = 512 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: every op either side may send, for validation and documentation.
#:
#: worker → dispatcher: ``hello`` (name/pid/host introduction),
#: ``heartbeat`` (lease renewal), ``result`` (task id, payload),
#: ``error`` (task id, exception type/message/traceback), ``bye``
#: (clean shutdown acknowledgement).
#:
#: dispatcher → worker: ``task`` (task id plus everything
#: ``execute_point`` needs), ``shutdown`` (drain and exit).
OPS: tuple[str, ...] = (
    "hello", "heartbeat", "result", "error", "bye", "task", "shutdown",
)


class FrameError(ConnectionError):
    """A malformed frame: bad length, bad JSON, or a mid-frame EOF.

    Subclasses :class:`ConnectionError` on purpose — every frame-level
    corruption is indistinguishable from (and handled like) a broken
    connection: the peer is written off and its work re-enqueued.
    """


def encode_payload(value: Any) -> str:
    """Pickle ``value`` and wrap it in base64 for JSON transport."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_payload(blob: str) -> Any:
    """Invert :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Serialize ``message`` and write one frame, atomically ordered.

    ``sendall`` of one prefix+body buffer keeps concurrent senders
    (the worker's compute thread and its heartbeat thread) from
    interleaving partial frames — callers still serialize sends with a
    lock, but a single write means even a dying peer never reads half
    a length prefix from one message and half from another.
    """
    body = json.dumps(message, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on EOF at offset 0, FrameError on
    EOF mid-buffer (a torn frame)."""
    chunks: list[bytes] = []
    received = 0
    while received < n:
        chunk = sock.recv(min(n - received, 1 << 20))
        if not chunk:
            if received == 0:
                return None
            raise FrameError(
                f"connection closed mid-frame ({received}/{n} bytes)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Raises :class:`FrameError` for torn frames, oversize lengths, and
    bodies that are not a JSON object with a known ``op``.
    """
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); corrupt prefix or protocol mismatch"
        )
    body = _recv_exact(sock, length)
    if body is None:  # pragma: no cover - _recv_exact raises instead
        raise FrameError("connection closed between prefix and body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(message, dict) or message.get("op") not in OPS:
        raise FrameError(f"frame is not a known-op object: {message!r:.200}")
    return message


def listen_socket(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """A listening TCP socket for the dispatcher (port 0 = ephemeral)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(128)
    return sock


def connect_socket(
    host: str, port: int, timeout: Optional[float] = 10.0
) -> socket.socket:
    """A connected TCP socket for a worker, with TCP_NODELAY.

    The connect honors ``timeout``; the returned socket is switched
    back to blocking mode (workers block in ``recv_frame`` between
    tasks, and the heartbeat thread owns liveness).
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock
