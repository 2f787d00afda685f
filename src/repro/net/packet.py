"""Packets.

Sequence numbers count *segments*, not bytes, mirroring NS2's
``Agent/TCP``: a data packet with ``seq = n`` is the (n+1)-th MSS-sized
segment of its flow.  ACKs carry the highest in-order segment received
(cumulative), plus echo fields used for RTT measurement and TCP-TRIM's
probe bookkeeping.
"""

from __future__ import annotations


MSS_BYTES = 1460
"""Data segment payload size used throughout the paper's experiments."""

ACK_BYTES = 40
"""Size of a pure ACK on the wire."""

DATA = "data"
ACK = "ack"

__all__ = ["ACK", "ACK_BYTES", "DATA", "MSS_BYTES", "Packet"]


class Packet:
    """A simulated packet.

    Attributes
    ----------
    flow_id:
        Connection identifier; hosts demultiplex on it and ECMP hashes it.
    src, dst:
        Node ids of the originating and destination hosts; switches route
        on ``dst``.
    kind:
        ``"data"`` or ``"ack"``.
    seq:
        Data: this segment's number.  ACK: unused (see ``ack``).
    ack:
        ACK: highest in-order segment received (cumulative ACK).
    for_seq, ts_echo, echo_retx, echo_probe:
        ACK echo fields: the data segment that triggered this ACK, its
        send timestamp, and its retransmission/probe flags.  These give
        the sender per-segment RTT samples with Karn's rule for free.
    ecn_capable / ecn_ce / ece:
        ECN transport bits: ECT on data, CE set by marking queues, and
        the receiver's echo on ACKs (per-packet echo, as DCTCP requires).
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "kind",
        "seq",
        "ack",
        "size_bytes",
        "ts",
        "is_retransmission",
        "is_probe",
        "ecn_capable",
        "ecn_ce",
        "ece",
        "for_seq",
        "ts_echo",
        "echo_retx",
        "echo_probe",
        "sack_blocks",
        "hops",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        kind: str,
        seq: int = -1,
        ack: int = -1,
        size_bytes: int = MSS_BYTES,
        ts: float = 0.0,
        is_retransmission: bool = False,
        is_probe: bool = False,
        ecn_capable: bool = False,
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.ack = ack
        self.size_bytes = size_bytes
        self.ts = ts
        self.is_retransmission = is_retransmission
        self.is_probe = is_probe
        self.ecn_capable = ecn_capable
        self.ecn_ce = False
        self.ece = False
        self.for_seq: int = -1
        self.ts_echo: float = 0.0
        self.echo_retx = False
        self.echo_probe = False
        #: ACK: up to 3 ``(start, end_exclusive)`` segment ranges the
        #: receiver holds above the cumulative ACK (SACK option).
        self.sack_blocks: tuple = ()
        self.hops = 0

    @property
    def is_data(self) -> bool:
        return self.kind == DATA

    @property
    def is_ack(self) -> bool:
        return self.kind == ACK

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_data:
            flags = "".join(
                f for f, on in (("R", self.is_retransmission), ("P", self.is_probe),
                                ("C", self.ecn_ce)) if on
            )
            return f"Packet(flow={self.flow_id}, data seq={self.seq}{' ' + flags if flags else ''})"
        return f"Packet(flow={self.flow_id}, ack={self.ack} for={self.for_seq})"


def make_ack(
    data_pkt: Packet,
    ack: int,
    now: float,
    sack_blocks: tuple = (),
) -> Packet:
    """Build the ACK a sink sends in response to ``data_pkt``."""
    pkt = Packet(
        flow_id=data_pkt.flow_id,
        src=data_pkt.dst,
        dst=data_pkt.src,
        kind=ACK,
        ack=ack,
        size_bytes=ACK_BYTES,
        ts=now,
    )
    pkt.for_seq = data_pkt.seq
    pkt.ts_echo = data_pkt.ts
    pkt.echo_retx = data_pkt.is_retransmission
    pkt.echo_probe = data_pkt.is_probe
    pkt.ece = data_pkt.ecn_ce
    pkt.sack_blocks = sack_blocks
    return pkt
