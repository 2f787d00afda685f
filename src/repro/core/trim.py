"""TCP-TRIM — the paper's contribution (Section III).

``TrimSource`` extends the Reno machinery of
:class:`repro.tcp.base.TcpSource` with the two mechanisms of the paper:

**Inter-train gap detection (Algorithm 1).**  Before transmitting a
never-sent segment, if the time since the last transmission exceeds the
smoothed RTT, the sender saves the accumulated window ``s_cwnd``, drops
``cwnd`` to 2, sends (up to) two *probe* segments, and suspends further
transmission.

**ACK action (Algorithm 2).**  Every ACK updates ``smooth_RTT``
(EWMA, α = 0.25), ``min_RTT``, and the threshold ``K`` (Eq. 22 with
``D = min_RTT``).  Then:

* a probe ACK arriving within one ``smooth_RTT`` contributes its RTT;
  when all probes are answered the window is re-inherited as
  ``cwnd = s_cwnd·(1 − (probe_RTT − min_RTT)/min_RTT)``          (Eq. 1)
  and transmission resumes.  If the deadline passes first,
  ``cwnd = 2`` and transmission resumes anyway;
* a normal ACK whose RTT is at least ``K`` computes
  ``ep = (RTT − K)/RTT``                                          (Eq. 2)
  and gently shrinks the window once per window of data:
  ``cwnd ← cwnd·(1 − ep/2)``                                      (Eq. 3).

Implementation notes from Section III.C are honoured: the minimum
window is 2; an Eq. (1) result that is tiny or negative clamps to 2;
trains of one or two packets still probe.

TCP-TRIM assumes per-packet ACKs, as ``TcpSink`` sends: delayed ACKs
would stall the ACK clock for up to the ACK timer, which Algorithm 1
cannot tell from an OFF period and would answer with spurious probes.

Beyond the paper's text we make two choices explicit (see DESIGN.md):
the Eq. (3) decrease is applied at most once per window of data (the
paper's own steady-state model assumes one decrement per flow per
round), and ``C`` — needed by Eq. 22 — is the configured access
capacity in packets/s, a deployment parameter of the kernel patch.
When ``capacity_pps`` is not given, K falls back to
``FALLBACK_K_FACTOR × min_RTT``.
"""

from __future__ import annotations

from typing import Optional

from repro.core import kguide
from repro.net.node import Host
from repro.net.packet import Packet
from repro.sim.kernel import Event, Simulator
from repro.tcp.base import MIN_CWND, TcpConfig, TcpSource
from repro.tcp.rtt import EwmaRtt

__all__ = ["TrimSource"]


class TrimSource(TcpSource):
    """TCP-TRIM sender."""

    protocol_name = "trim"

    SMOOTH_ALPHA = 0.25  # the paper's α for smooth_RTT (Section IV)
    FALLBACK_K_FACTOR = 1.5  # K = factor · min_RTT when C is unknown

    __slots__ = (
        "capacity_pps", "base_rtt", "smooth_rtt", "min_rtt", "k",
        "probing", "probes_completed", "probes_timed_out", "_probe_seqs",
        "_probe_rtts", "_saved_cwnd", "_probe_deadline",
        "_decrease_barrier", "delay_decreases",
    )

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        dst_id: int,
        config: Optional[TcpConfig] = None,
        name: str = "",
        capacity_pps: Optional[float] = None,
        base_rtt: Optional[float] = None,
        smooth_alpha: float = SMOOTH_ALPHA,
    ) -> None:
        super().__init__(sim, host, flow_id, dst_id, config=config, name=name)
        if base_rtt is not None and base_rtt <= 0:
            # Eq. (1) divides by min_RTT, which a configured base_rtt
            # seeds; zero or negative would poison every re-inheritance.
            raise ValueError(f"base_rtt must be positive, got {base_rtt!r}")
        if capacity_pps is not None and capacity_pps <= 0:
            raise ValueError(
                f"capacity_pps must be positive, got {capacity_pps!r}"
            )
        self.capacity_pps = capacity_pps
        self.base_rtt = base_rtt
        self.smooth_rtt = EwmaRtt(smooth_alpha)
        # A configured base_rtt seeds min_RTT with the true queue-free
        # value; measurements can only confirm it (they are never lower).
        self.min_rtt: Optional[float] = base_rtt
        self.k: Optional[float] = None
        if capacity_pps is not None and base_rtt is not None:
            # The paper's deployment: C and D are path constants, so K
            # is configured statically per Eq. 22 ("K is set according
            # to Equation (22)", Sec. IV).  A static K avoids the
            # delay-based latecomer problem: a flow joining a loaded
            # path can never measure the true queue-free D, and a K
            # derived from its inflated min_RTT would let it starve
            # incumbents.
            self.k = kguide.k_threshold(capacity_pps, base_rtt)
        # Probe state
        self.probing = False
        self.probes_completed = 0
        self.probes_timed_out = 0
        self._probe_seqs: set[int] = set()
        self._probe_rtts: list[float] = []
        self._saved_cwnd: float = 0.0
        self._probe_deadline: Optional[Event] = None
        # Eq. (3) once-per-window barrier
        self._decrease_barrier: int = -1
        self.delay_decreases = 0

    # ------------------------------------------------------------------
    # Algorithm 1: inter-train gap detection
    # ------------------------------------------------------------------
    def _before_send_new(self) -> bool:
        gap_threshold = self.smooth_rtt.value
        if (
            self.probing
            or gap_threshold is None
            or self.last_send_time is None
            or self.sim.now - self.last_send_time <= gap_threshold
        ):
            return True
        self._enter_probe_mode()
        return False

    def _enter_probe_mode(self) -> None:
        self._saved_cwnd = max(self.cwnd, MIN_CWND)
        self.cwnd = MIN_CWND  # 2, per Algorithm 1
        self.probing = True
        self.suspended = True
        self._probe_seqs.clear()
        self._probe_rtts.clear()
        n_probes = min(2, self.app_limit - self.t_seqno)
        for _ in range(n_probes):
            self._probe_seqs.add(self.t_seqno)
            self._send_segment(self.t_seqno, probe=True)
            self.t_seqno += 1
        # The paper gives each probe ACK "a smoothed RTT" to return.
        # Both probes leave back-to-back, so the deadline is re-armed
        # when a probe ACK arrives: the second ACK trails the first by a
        # serialization time and must not be condemned by it on an idle
        # path where smooth_RTT has converged to exactly one RTT —
        # while a loaded path, where no ACK returns in time at all,
        # still fails fast after one smooth_RTT.
        deadline = self.smooth_rtt.value
        # Probes are only sent after at least one ACK has seeded the
        # smoothed RTT, so the estimator always has a value here.
        assert deadline is not None
        self._probe_deadline = self.sim.schedule(deadline, self._on_probe_deadline)
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_probe(
                self.sim.now, self.flow_id, "enter",
                saved_cwnd=self._saved_cwnd, n_probes=n_probes,
            )

    def _on_probe_deadline(self) -> None:
        self._probe_deadline = None
        if self.probing:
            self.probes_timed_out += 1
            tel = self.sim.telemetry
            if tel is not None:
                tel.on_probe(self.sim.now, self.flow_id, "timeout")
            self._finish_probe(success=False)

    def _finish_probe(self, success: bool) -> None:
        self.probing = False
        self.suspended = False
        if self._probe_deadline is not None:
            self._probe_deadline.cancel()
            self._probe_deadline = None
        factor: Optional[float] = None
        # ``is not None`` rather than truthiness: a (pathological but
        # valid) measured min_RTT could be arbitrarily small, and the
        # construction-time check guarantees a seeded value is positive —
        # a falsy 0.0 must not silently demote a successful probe round.
        if success and self._probe_rtts and self.min_rtt is not None:
            self.probes_completed += 1
            probe_rtt = sum(self._probe_rtts) / len(self._probe_rtts)
            factor = 1.0 - (probe_rtt - self.min_rtt) / self.min_rtt  # Eq. (1)
            tuned = self._saved_cwnd * factor
            # Sec. III.C: tiny/negative results clamp to the minimum window;
            # the inherited window is never *larger* than what was saved.
            self.cwnd = min(self._saved_cwnd, max(MIN_CWND, tuned))
            if factor < 1.0:
                # The probes observed queueing: continue in congestion
                # avoidance, the +1/RTT growth the Sec. III.B model
                # assumes.  (Slow-starting back to the saved window was
                # tried and oscillates under contention: each burst
                # inflates the RTT, retriggering gap detection.)
                self.ssthresh = max(self.cwnd, MIN_CWND)
        else:
            self.cwnd = MIN_CWND
            self.ssthresh = max(self.cwnd, MIN_CWND)
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_probe(
                self.sim.now, self.flow_id, "inherit",
                success=success, factor=factor, cwnd=self.cwnd,
                saved_cwnd=self._saved_cwnd,
            )
            tel.on_cwnd(self.sim.now, self.flow_id, self.cwnd, self.ssthresh)
        self._probe_seqs.clear()
        self._probe_rtts.clear()
        # Restart the gap clock: the probe round trip itself must not
        # read as an OFF period, or the sender probe-locks — resume,
        # measure ti ≈ one RTT > smooth_RTT, probe again, forever,
        # shipping the whole train as probe pairs.
        self.last_send_time = self.sim.now
        self._try_send()

    # ------------------------------------------------------------------
    # Algorithm 2: ACK action
    # ------------------------------------------------------------------
    def _on_rtt_sample(self, rtt: float, pkt: Packet) -> None:
        self.smooth_rtt.update(rtt)
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
            self._update_k()

    def _update_k(self) -> None:
        if self.base_rtt is not None and self.capacity_pps is not None:
            return  # statically configured K (Eq. 22 with known C, D)
        assert self.min_rtt is not None
        if self.capacity_pps is not None:
            self.k = kguide.k_threshold(self.capacity_pps, self.min_rtt)
        else:
            self.k = self.FALLBACK_K_FACTOR * self.min_rtt

    def _on_ack_pre_increase(self, newly_acked: int, pkt: Packet) -> bool:
        if pkt.echo_probe and self.probing and pkt.for_seq in self._probe_seqs:
            self._probe_seqs.discard(pkt.for_seq)
            sample = None if pkt.echo_retx else self.sim.now - pkt.ts_echo
            if sample is not None:
                self._probe_rtts.append(sample)
            tel = self.sim.telemetry
            if tel is not None:
                tel.on_probe(self.sim.now, self.flow_id, "ack", rtt=sample)
            if not self._probe_seqs:
                self._finish_probe(success=True)
            elif self._probe_deadline is not None and self.smooth_rtt.value:
                # Re-arm the deadline for the remaining probe ACK(s).
                self._probe_deadline = self.sim.restart(
                    self._probe_deadline, self.smooth_rtt.value
                )
            return True  # probe ACKs never grow the window
        # Queuing-control phase (Algorithm 2, else branch).
        if pkt.echo_retx or self.k is None:
            return False
        rtt = self.sim.now - pkt.ts_echo
        if rtt >= self.k and pkt.ack >= self._decrease_barrier:
            ep = kguide.congestion_level(rtt, self.k)  # Eq. (2)
            self.cwnd = max(MIN_CWND, self.cwnd * (1.0 - ep / 2.0))
            # A delay signal is a congestion signal: leave slow start so
            # subsequent growth is the model's +1 per RTT (Eq. 6).
            self.ssthresh = self.cwnd
            self._decrease_barrier = self.t_seqno  # once per window of data
            self.delay_decreases += 1
            return True
        return False

    def _after_timeout(self) -> None:
        # An RTO aborts any probe in progress: its state is stale.
        if self.probing:
            self._probe_seqs.clear()
            self._probe_rtts.clear()
            self.probing = False
        self.suspended = False
        if self._probe_deadline is not None:
            self._probe_deadline.cancel()
            self._probe_deadline = None
