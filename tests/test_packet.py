"""Tests for packets, SACK blocks and helpers."""

import pytest

from repro.sim.packet import (
    ACK_PACKET_BYTES,
    DATA_PACKET_BYTES,
    SackBlock,
    make_ack_packet,
    make_data_packet,
)


class TestSackBlock:
    def test_membership(self):
        block = SackBlock(10, 20)
        assert 10 in block
        assert 19 in block
        assert 20 not in block
        assert 9 not in block

    def test_count(self):
        assert SackBlock(10, 20).count == 10

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SackBlock(5, 5)
        with pytest.raises(ValueError):
            SackBlock(5, 3)


class TestFactories:
    def test_data_packet_stamps_clock(self):
        pkt = make_data_packet(flow_id=3, seq=42, now=1.25)
        assert pkt.flow_id == 3
        assert pkt.seq == 42
        assert pkt.tsval == 1.25
        assert pkt.sent_time == 1.25
        assert pkt.size == DATA_PACKET_BYTES
        assert not pkt.is_ack
        assert not pkt.retransmit
        assert pkt.tsecr == -1.0  # no echo on a plain data segment

    def test_retransmit_flag(self):
        pkt = make_data_packet(flow_id=0, seq=1, now=0.0, retransmit=True)
        assert pkt.retransmit

    def test_ack_packet_fields(self):
        ack = make_ack_packet(
            flow_id=1, ack=100, receiver_ts=2.5, echoed_tsval=2.4,
            sacks=[SackBlock(110, 115)],
        )
        assert ack.is_ack
        assert ack.ack == 100
        assert ack.tsval == 2.5
        assert ack.tsecr == 2.4
        assert ack.size == ACK_PACKET_BYTES
        assert ack.sacks == [SackBlock(110, 115)]

    def test_packet_uids_unique(self):
        uids = {make_data_packet(0, i, 0.0).uid for i in range(100)}
        assert len(uids) == 100

