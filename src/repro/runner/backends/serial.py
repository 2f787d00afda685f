"""In-process execution: the zero-overhead debugging backend."""

from __future__ import annotations

import concurrent.futures
from typing import Any

from repro.runner.backends.base import PointSpec, SweepBackend, execute_point

__all__ = ["SerialBackend"]


class SerialBackend(SweepBackend):
    """Run every point inline in the calling process.

    ``submit`` executes the point before returning (``inline = True``),
    so the runner journals each result before starting the next point —
    exactly the crash-safety profile of the historical ``jobs=1`` path.
    There is no pickling, no worker pool, and no registry requirement:
    the live experiment object on the :class:`PointSpec` is called
    directly, which is why this is the default under ``--jobs 1`` and
    the mode to use inside a debugger.

    Control-flow exceptions — ``KeyboardInterrupt``, ``SystemExit``,
    ``GeneratorExit`` — propagate out of ``submit`` rather than being
    captured on the future: capturing them would feed an interpreter-
    level "stop now" into the retry loop as if it were a point failure
    (re-running a point the user just cancelled, or swallowing a
    ``sys.exit`` from experiment code).  Propagating preserves the
    runner's graceful-interrupt contract — completed points already
    durable, partial payloads raised as ``SweepInterrupted``.
    """

    name = "serial"
    inline = True

    def submit(self, spec: PointSpec) -> "concurrent.futures.Future[Any]":
        future: "concurrent.futures.Future[Any]" = concurrent.futures.Future()
        future.set_running_or_notify_cancel()
        try:
            value = execute_point(
                spec.experiment, spec.params, spec.point, spec.seed,
                spec.params_digest,
            )
        except (KeyboardInterrupt, SystemExit, GeneratorExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - runner owns retry policy
            future.set_exception(exc)
        else:
            future.set_result(value)
        return future
