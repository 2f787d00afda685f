"""Packet-level tracing — the NS2 trace-file substitute.

:class:`PacketLogger` hooks a link's delivery path and records
``(time, flow_id, seq, size)`` for every packet (optionally filtered to
one flow or to data packets).  The log feeds the Section II.A
packet-train analysis (:func:`repro.http.packet_train.extract_trains`),
which is how Fig. 1's staircase was produced from live traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.http.packet_train import PacketTrain, extract_trains
from repro.net.link import Link
from repro.net.packet import Packet

__all__ = ["LoggedPacket", "PacketLogger"]


@dataclass(frozen=True)
class LoggedPacket:
    """One trace record."""

    time: float
    flow_id: int
    seq: int
    size_bytes: int
    is_retransmission: bool


class PacketLogger:
    """Records every packet a link delivers.

    Registers as a link delivery *observer* (``Link.add_observer``, the
    link's one per-packet tap), so any number of loggers can share a
    link and detach in any order.
    """

    def __init__(
        self,
        link: Link,
        flow_id: Optional[int] = None,
        data_only: bool = True,
    ) -> None:
        self.link = link
        self.flow_id = flow_id
        self.data_only = data_only
        self.records: list[LoggedPacket] = []
        self._attached = True
        link.add_observer(self._on_deliver)

    def _on_deliver(self, pkt: Packet) -> None:
        if self.data_only and not pkt.is_data:
            return
        if self.flow_id is not None and pkt.flow_id != self.flow_id:
            return
        self.records.append(
            LoggedPacket(
                time=self.link.sim.now,
                flow_id=pkt.flow_id,
                seq=pkt.seq,
                size_bytes=pkt.size_bytes,
                is_retransmission=pkt.is_retransmission,
            )
        )

    def detach(self) -> None:
        """Stop logging.  Idempotent; other observers are unaffected."""
        if self._attached:
            self._attached = False
            self.link.remove_observer(self._on_deliver)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def times(self) -> list[float]:
        return [r.time for r in self.records]

    @property
    def sizes(self) -> list[int]:
        return [r.size_bytes for r in self.records]

    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self.records)

    def trains(self, gap: float) -> list[PacketTrain]:
        """Extract packet trains from the log (Sec. II.A definition)."""
        return extract_trains(self.times, self.sizes, gap=gap)
