"""Query views over exported telemetry: cwnd and queue timelines.

Both timelines are step functions built from trace rows (either live
``Telemetry.rows()`` output or rows loaded back from JSONL), with
bisect-based point queries — the API the ``trace`` report's staircase
renderer and the analysis notebooks consume.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable, Mapping, Optional

__all__ = ["CwndTimeline", "QueueTimeline"]


def _flows_present(rows: list[Mapping[str, Any]]) -> list[int]:
    return sorted({int(row["flow"]) for row in rows})


class CwndTimeline:
    """One flow's congestion window as a right-continuous step function."""

    def __init__(
        self,
        flow: int,
        times: list[float],
        cwnd: list[float],
        ssthresh: list[float],
    ) -> None:
        if not (len(times) == len(cwnd) == len(ssthresh)):
            raise ValueError("times/cwnd/ssthresh lengths differ")
        self.flow = flow
        self.times = times
        self.cwnd = cwnd
        self.ssthresh = ssthresh

    @classmethod
    def from_rows(
        cls, rows: Iterable[Mapping[str, Any]], flow: Optional[int] = None
    ) -> "CwndTimeline":
        """Build from trace rows; picks the lowest flow id when
        ``flow`` is not given.  Raises ValueError when the rows hold no
        cwnd records (for the requested flow)."""
        cwnd_rows = [row for row in rows if row.get("ch") == "cwnd"]
        if not cwnd_rows:
            raise ValueError("no cwnd records in trace")
        if flow is None:
            flow = _flows_present(cwnd_rows)[0]
        mine = [row for row in cwnd_rows if int(row["flow"]) == flow]
        if not mine:
            raise ValueError(
                f"no cwnd records for flow {flow}; flows present: "
                f"{_flows_present(cwnd_rows)}"
            )
        mine.sort(key=lambda row: float(row["t"]))  # stable: emission order kept
        return cls(
            flow,
            [float(row["t"]) for row in mine],
            [float(row["cwnd"]) for row in mine],
            [float(row["ssthresh"]) for row in mine],
        )

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t_start(self) -> float:
        return self.times[0]

    @property
    def t_end(self) -> float:
        return self.times[-1]

    @property
    def max_cwnd(self) -> float:
        return max(self.cwnd)

    def value_at(self, t: float) -> Optional[float]:
        """The window in force at time ``t`` (None before the first
        sample)."""
        i = bisect_right(self.times, t) - 1
        if i < 0:
            return None
        return self.cwnd[i]


class QueueTimeline:
    """One link's queue occupancy samples plus its drop/mark/evict events."""

    def __init__(
        self,
        link: str,
        times: list[float],
        backlog: list[int],
        events: list[tuple[float, str, int]],
    ) -> None:
        if len(times) != len(backlog):
            raise ValueError("times/backlog lengths differ")
        self.link = link
        self.times = times
        self.backlog = backlog
        #: ``(time, kind, backlog)`` for the non-sample kinds.
        self.events = events

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, Any]]) -> "QueueTimeline":
        """Build from trace rows for the link whose name sorts first.
        Raises ValueError when the rows hold no queue records."""
        queue_rows = [row for row in rows if row.get("ch") == "queue"]
        if not queue_rows:
            raise ValueError("no queue records in trace")
        link = min(str(row["link"]) for row in queue_rows)
        mine = [row for row in queue_rows if str(row["link"]) == link]
        samples = [row for row in mine if row["kind"] == "sample"]
        samples.sort(key=lambda row: float(row["t"]))
        events = [
            (float(row["t"]), str(row["kind"]), int(row["backlog"]))
            for row in mine
            if row["kind"] != "sample"
        ]
        events.sort(key=lambda item: item[0])
        return cls(
            link,
            [float(row["t"]) for row in samples],
            [int(row["backlog"]) for row in samples],
            events,
        )

    def __len__(self) -> int:
        return len(self.times)

    @property
    def peak_backlog(self) -> int:
        return max(self.backlog) if self.backlog else 0

    def value_at(self, t: float) -> Optional[int]:
        i = bisect_right(self.times, t) - 1
        if i < 0:
            return None
        return self.backlog[i]

    def drops(self) -> list[tuple[float, str, int]]:
        """The loss-causing events (everything except ``mark``)."""
        return [e for e in self.events if e[1] != "mark"]
