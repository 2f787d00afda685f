"""Progress and ETA reporting for sweep runs.

The reporter prints one line per resolved point to ``stderr`` (keeping
``stdout`` clean for the experiment's own rows and JSON artifacts):

    [fig8] 4/9 points done (2 cached) elapsed 12.3s eta 15.4s

ETA extrapolates from executed (non-cached) points only — cache hits
resolve in microseconds and would otherwise make the estimate absurdly
optimistic.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Line-oriented progress printer with a running ETA."""

    def __init__(self, label: str = "sweep", stream: Optional[TextIO] = None) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.total = 0
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.timeouts = 0
        self.errors = 0
        self._started = 0.0

    def start(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.timeouts = 0
        self.errors = 0
        self._started = time.perf_counter()

    def point_done(
        self,
        label: str,
        cached: bool = False,
        failed: bool = False,
        kind: str = "",
    ) -> None:
        """One point resolved.  For failures, ``kind`` splits the
        accounting: ``"timeout"`` counts toward :attr:`timeouts`, any
        other kind (errors, lost workers) toward
        :attr:`errors` — the progress line and summary report the two
        separately because they call for different operator reactions
        (raise the timeout vs. read the traceback)."""
        self.done += 1
        if cached:
            self.cached += 1
        if failed:
            self.failed += 1
            if kind == "timeout":
                self.timeouts += 1
            else:
                self.errors += 1
        self._emit(label)

    def _failure_note(self) -> str:
        """The failure fragment, split by class: ``2 timeouts, 1 error``."""
        fragments = []
        if self.timeouts:
            plural = "s" if self.timeouts != 1 else ""
            fragments.append(f"{self.timeouts} timeout{plural}")
        if self.errors:
            plural = "s" if self.errors != 1 else ""
            fragments.append(f"{self.errors} error{plural}")
        return ", ".join(fragments)

    def _emit(self, label: str) -> None:
        elapsed = time.perf_counter() - self._started
        executed = self.done - self.cached
        remaining = self.total - self.done
        parts = [f"[{self.label}] {self.done}/{self.total} points"]
        if self.cached:
            parts.append(f"({self.cached} cached)")
        if self.failed:
            parts.append(f"({self._failure_note()} FAILED)")
        parts.append(f"last={label}")
        parts.append(f"elapsed {elapsed:.1f}s")
        if remaining and executed > 0:
            eta = elapsed / executed * remaining
            parts.append(f"eta {eta:.1f}s")
        print(" ".join(parts), file=self.stream, flush=True)

    def finish(self) -> None:
        elapsed = time.perf_counter() - self._started
        if self.total:
            failure_note = (
                f"{self._failure_note()} failed" if self.failed else "0 failed"
            )
            summary = (
                f"[{self.label}] done: {self.done}/{self.total} points "
                f"({self.cached} cached, {failure_note}) in {elapsed:.1f}s"
            )
            print(summary, file=self.stream, flush=True)
