"""Fleet-dispatch telemetry: a standalone, wall-free flight recorder.

The dispatcher runs *outside* any simulation, so its events do not go
through a :class:`~repro.obs.telemetry.Telemetry` bus (which is owned
by a simulator and timestamped in sim seconds).  Instead the backend
owns one :class:`DispatchLog`: a bounded ring of
:class:`~repro.obs.records.DispatchRecord` rows timestamped as elapsed
seconds since the log's epoch on a monotonic clock — operationally
useful ordering without touching wall-clock APIs (simlint SIM002).

The rows share the trace JSONL encoding (``ch``/``t``/sorted keys), so
``repro.obs.export.load_jsonl`` and ``trace --check`` understand
dispatch rows exactly like any other channel's export.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Callable, Optional

from repro.obs.records import DISPATCH_EVENTS, DispatchRecord

__all__ = ["DispatchLog"]

#: ring capacity — generous for any realistic sweep (a few events per
#: point per retry), bounded so a pathological crash-loop cannot grow
#: memory without bound.
LOG_CAPACITY = 65536


class DispatchLog:
    """Bounded, ordered record of one dispatch backend's fleet events."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._epoch = clock()
        self._records: deque[DispatchRecord] = deque(maxlen=LOG_CAPACITY)

    def emit(
        self,
        event: str,
        worker: Optional[str] = None,
        host: Optional[str] = None,
        point: Optional[str] = None,
        attempt: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> DispatchRecord:
        """Record one fleet event; returns the stored record."""
        if event not in DISPATCH_EVENTS:
            raise ValueError(
                f"unknown dispatch event {event!r} "
                f"(known: {', '.join(DISPATCH_EVENTS)})"
            )
        record = DispatchRecord(
            t=round(self._clock() - self._epoch, 6),
            event=event,
            worker=worker,
            host=host,
            point=point,
            attempt=attempt,
            detail=detail,
        )
        self._records.append(record)
        return record

    def records(self) -> list[DispatchRecord]:
        """The retained records, oldest first."""
        return list(self._records)

    def counts(self) -> dict[str, int]:
        """Event -> occurrence count over the retained window."""
        return dict(Counter(record.event for record in self._records))

    def __len__(self) -> int:
        return len(self._records)
