"""D²TCP (SIGCOMM 2012) — deadline-aware DCTCP, related work [15].

D²TCP keeps DCTCP's ECN machinery but gamma-corrects the back-off with
a per-flow urgency factor ``d``: the penalty applied to a marked window
is ``p = alpha^d`` and the cut ``cwnd ← cwnd·(1 − p/2)``.  A
far-deadline flow (d < 1) backs off *more* than DCTCP; a near-deadline
flow (d > 1) backs off less, releasing bandwidth from the patient flows
to the urgent ones.  ``d`` is the ratio of the time the flow still
needs (remaining data at the current rate) to the time its deadline
leaves, clamped to [0.5, 2] as in the paper.  Flows without a deadline
behave exactly like DCTCP (d = 1).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.packet import Packet
from repro.tcp.base import MIN_CWND
from repro.tcp.dctcp import DctcpSource

__all__ = ["D2tcpSource"]


class D2tcpSource(DctcpSource):
    """D²TCP sender."""

    protocol_name = "d2tcp"

    D_MIN = 0.5
    D_MAX = 2.0

    __slots__ = ("deadline",)

    def __init__(
        self, *args: Any, deadline: Optional[float] = None, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (absolute sim time)")
        #: absolute simulation time by which all queued data should be
        #: delivered; None = deadline-less (plain DCTCP behaviour).
        self.deadline = deadline

    def urgency(self) -> float:
        """The deadline-imminence factor d, clamped to [0.5, 2]."""
        if self.deadline is None:
            return 1.0
        remaining_segments = self.app_limit - (self.highest_ack + 1)
        if remaining_segments <= 0:
            return 1.0
        time_left = self.deadline - self.sim.now
        if time_left <= 0:
            return self.D_MAX  # already late: maximum urgency
        srtt = self.rtt.srtt
        if srtt is None or self.cwnd <= 0:
            return 1.0
        # Time needed at the current rate (cwnd segments per RTT).
        time_needed = remaining_segments / self.cwnd * srtt
        return min(self.D_MAX, max(self.D_MIN, time_needed / time_left))

    def _on_ack_pre_increase(self, newly_acked: int, pkt: Packet) -> bool:
        self._acked_in_window += newly_acked
        if pkt.ece:
            self._marked_in_window += newly_acked
        if pkt.ack < self._window_end:
            return False
        fraction = (
            self._marked_in_window / self._acked_in_window
            if self._acked_in_window
            else 0.0
        )
        self.alpha = (1.0 - self.G) * self.alpha + self.G * fraction
        cut = self._marked_in_window > 0
        if cut:
            penalty = self.alpha ** self.urgency()  # the gamma correction
            self.cwnd = max(
                MIN_CWND, self.cwnd * (1.0 - penalty / 2.0)
            )
            self.ssthresh = self.cwnd
        self._window_end = self.t_seqno
        self._acked_in_window = 0
        self._marked_in_window = 0
        return cut
