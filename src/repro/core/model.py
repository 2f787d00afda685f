"""Fluid model of TCP-TRIM's steady state (Section III.B).

A round-based iteration of the paper's Equations (5)–(10): N
synchronized long trains grow additively until the queue crosses the
target ``Q = C·(K − D)``, then each flow applies the Eq. (3) back-off
computed from its own Eq. (8) RTT.  The model is used to validate the K
guideline analytically (queue never drains to zero when K satisfies
Eq. 22) and to drive the ablation bench that sweeps K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import kguide

__all__ = ["SteadyStateModel", "SteadyStateTrace"]


@dataclass
class SteadyStateTrace:
    """Round-by-round record of the fluid model."""

    rounds: list[int] = field(default_factory=list)
    queue_pkts: list[float] = field(default_factory=list)
    total_window: list[float] = field(default_factory=list)
    utilization_ok: bool = True

    @property
    def min_queue(self) -> float:
        return min(self.queue_pkts)

    @property
    def max_queue(self) -> float:
        return max(self.queue_pkts)


@dataclass
class SteadyStateModel:
    """N synchronized long trains through one bottleneck.

    Parameters mirror the analysis: ``capacity_pps`` (C), ``base_rtt``
    (D), ``n_flows`` (N), and the back-off threshold ``k``.
    """

    capacity_pps: float
    base_rtt: float
    n_flows: int
    k: float

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError("need at least one flow")
        if self.k < self.base_rtt:
            raise ValueError("K must be at least the base RTT")

    def run(self, n_rounds: int = 50) -> SteadyStateTrace:
        """Iterate rounds of growth and synchronized back-off.

        Each round every flow adds one segment (Eq. 6).  While the total
        outstanding window is at most ``C·D`` the queue is empty; beyond
        that the excess sits in the buffer.  When the queue exceeds the
        target ``Q``, flow j sees RTT ``K + j/C`` (Eq. 8) and cuts by
        Eq. (3); the trace records the queue right after the cut —
        utilization holds iff it never reaches zero (Eq. 11).
        """
        if n_rounds < 1:
            raise ValueError("need at least one round")
        trace = SteadyStateTrace()
        pipe_capacity = self.capacity_pps * self.base_rtt  # C·D, in-flight limit
        q_target = kguide.desired_queue_pkts(self.capacity_pps, self.k, self.base_rtt)
        # Start each flow at its Eq. (5) steady share.
        per_flow = kguide.steady_window_pkts(self.capacity_pps, self.k, self.n_flows)
        windows = [per_flow] * self.n_flows

        for rnd in range(n_rounds):
            # Eq. (6): additive increase of one segment per flow per round.
            windows = [w + 1.0 for w in windows]
            queue = max(0.0, sum(windows) - pipe_capacity)
            if queue > q_target:
                # Synchronized back-off.  Flow j's packets sit behind
                # the standing queue plus the j flows ahead of it, so
                # RTT_j = D + (queue − N + j)/C — which at the paper's
                # Q_max reduces exactly to Eq. (8): K + j/C.
                for j in range(self.n_flows):
                    backlog = max(0.0, queue - self.n_flows + (j + 1))
                    rtt_j = self.base_rtt + backlog / self.capacity_pps
                    ep = kguide.congestion_level(rtt_j, self.k)
                    windows[j] = max(2.0, windows[j] * (1.0 - ep / 2.0))
                queue = max(0.0, sum(windows) - pipe_capacity)
            trace.rounds.append(rnd)
            trace.queue_pkts.append(queue)
            trace.total_window.append(sum(windows))
            if queue <= 0.0 and rnd > 0:
                trace.utilization_ok = False
        return trace
