"""DCTCP (SIGCOMM 2010) — the paper's primary ECN-based comparison.

The sender keeps a running estimate ``alpha`` of the fraction of its
packets that were CE-marked, updated once per window with gain ``g``:
``alpha ← (1 − g)·alpha + g·F``.  A window containing any marks is cut
once by ``cwnd ← cwnd·(1 − alpha/2)``.  Marking itself happens in
:class:`repro.net.queues.EcnQueue` (instantaneous threshold), and the
sink echoes CE per packet — the simplified echo the DCTCP paper uses in
its analysis.

Requires the network to be built with ``ecn_threshold_pkts`` so switch
queues actually mark; this mirrors the real deployment constraint the
paper holds against DCTCP (switch ECN support), which TCP-TRIM avoids.
"""

from __future__ import annotations

from typing import Any

from repro.net.packet import Packet
from repro.tcp.base import TcpConfig, TcpSource

__all__ = ["DctcpSource"]


class DctcpSource(TcpSource):
    """DCTCP sender."""

    protocol_name = "dctcp"

    G = 1.0 / 16.0  # alpha estimation gain, per the DCTCP paper

    __slots__ = ("alpha", "_window_end", "_acked_in_window", "_marked_in_window")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        config = kwargs.get("config")
        if config is None:
            # ECN capability is mandatory for DCTCP.
            kwargs["config"] = TcpConfig(ecn_capable=True)
        elif not config.ecn_capable:
            raise ValueError("DCTCP requires an ECN-capable TcpConfig")
        super().__init__(*args, **kwargs)
        self.alpha: float = 1.0  # conservative start, per the paper
        self._window_end: int = 0
        self._acked_in_window: int = 0
        self._marked_in_window: int = 0

    def _on_ack_pre_increase(self, newly_acked: int, pkt: Packet) -> bool:
        self._acked_in_window += newly_acked
        if pkt.ece:
            self._marked_in_window += newly_acked
        if pkt.ack < self._window_end:
            return False
        # One window's worth of ACKs has arrived: update alpha, maybe cut.
        fraction = (
            self._marked_in_window / self._acked_in_window
            if self._acked_in_window
            else 0.0
        )
        self.alpha = (1.0 - self.G) * self.alpha + self.G * fraction
        cut = self._marked_in_window > 0
        if cut:
            self.cwnd = max(
                self.config.min_cwnd, self.cwnd * (1.0 - self.alpha / 2.0)
            )
            # Standard DCTCP: the cut ends slow start.
            self.ssthresh = self.cwnd
        self._window_end = self.t_seqno
        self._acked_in_window = 0
        self._marked_in_window = 0
        return cut  # a cut window skips this ACK's increase

    def _after_timeout(self) -> None:
        self._window_end = self.t_seqno
        self._acked_in_window = 0
        self._marked_in_window = 0
