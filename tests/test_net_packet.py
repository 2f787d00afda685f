"""Unit tests for packets and ACK construction."""

from repro.net.packet import ACK, ACK_BYTES, DATA, MSS_BYTES, Packet, make_ack


def data_packet(**overrides):
    defaults = dict(flow_id=1, src=10, dst=20, kind=DATA, seq=5, ts=0.25)
    defaults.update(overrides)
    return Packet(**defaults)


class TestPacket:
    def test_defaults(self):
        pkt = data_packet()
        assert pkt.size_bytes == MSS_BYTES
        assert not pkt.is_retransmission
        assert not pkt.is_probe
        assert not pkt.ecn_capable
        assert not pkt.ecn_ce
        assert pkt.hops == 0

    def test_kind_properties(self):
        assert data_packet().is_data
        ack = Packet(flow_id=1, src=20, dst=10, kind=ACK, ack=4)
        assert not ack.is_data

    def test_repr_mentions_flags(self):
        pkt = data_packet(is_retransmission=True, is_probe=True)
        text = repr(pkt)
        assert "R" in text and "P" in text


class TestMakeAck:
    def test_reverses_direction_and_keeps_flow(self):
        pkt = data_packet()
        ack = make_ack(pkt, ack=4, now=1.0)
        assert (ack.src, ack.dst) == (pkt.dst, pkt.src)
        assert ack.flow_id == pkt.flow_id
        assert ack.kind == ACK
        assert ack.size_bytes == ACK_BYTES

    def test_echo_fields(self):
        pkt = data_packet(is_retransmission=True, is_probe=True)
        pkt.ecn_ce = True
        ack = make_ack(pkt, ack=5, now=2.0)
        assert ack.for_seq == pkt.seq
        assert ack.ts_echo == pkt.ts
        assert ack.echo_retx
        assert ack.echo_probe
        assert ack.ece

    def test_clean_packet_echoes_clean(self):
        ack = make_ack(data_packet(), ack=5, now=2.0)
        assert not ack.echo_retx
        assert not ack.echo_probe
        assert not ack.ece

    def test_cumulative_ack_value(self):
        ack = make_ack(data_packet(seq=9), ack=3, now=0.0)
        assert ack.ack == 3  # cumulative, independent of the trigger seq
        assert ack.for_seq == 9
