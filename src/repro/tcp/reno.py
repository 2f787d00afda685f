"""TCP Reno — the paper's "legacy TCP" baseline.

All Reno mechanics live in :class:`repro.tcp.base.TcpSource`; this class
exists so experiments can name the protocol explicitly and so the
factory has a concrete type per protocol.
"""

from __future__ import annotations

from repro.tcp.base import TcpSource

__all__ = ["RenoSource"]


class RenoSource(TcpSource):
    """Plain TCP Reno sender (see :class:`~repro.tcp.base.TcpSource`)."""

    protocol_name = "reno"

    __slots__ = ()
