"""Tests for the TCP receiver: ACK generation, SACK, timestamp echo."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import make_data_packet
from repro.tcp.receiver import TcpReceiver


def _receiver(sim=None, granularity=0.01, sack=True):
    sim = sim or Simulator()
    acks = []
    recv = TcpReceiver(
        sim, flow_id=0, send_ack=acks.append,
        ts_granularity=granularity, sack_enabled=sack,
    )
    return sim, recv, acks


def _data(seq, now=0.0):
    return make_data_packet(flow_id=0, seq=seq, now=now)


class TestInOrder:
    def test_cumulative_ack_advances(self):
        sim, recv, acks = _receiver()
        for seq in range(3):
            recv.receive(_data(seq))
        assert [a.ack for a in acks] == [1, 2, 3]
        assert recv.rcv_nxt == 3

    def test_in_order_echoes_own_tsval(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0, now=1.234))
        assert acks[0].tsecr == 1.234

    def test_receiver_timestamp_quantised(self):
        sim, recv, acks = _receiver(granularity=0.01)
        sim.schedule(0.017, lambda: recv.receive(_data(0)))
        sim.run()
        assert acks[0].tsval == pytest.approx(0.01)

    def test_zero_granularity_uses_exact_clock(self):
        sim, recv, acks = _receiver(granularity=0.0)
        sim.schedule(0.0173, lambda: recv.receive(_data(0)))
        sim.run()
        assert acks[0].tsval == pytest.approx(0.0173)

    def test_rejects_ack_packets(self):
        from repro.sim.packet import make_ack_packet

        _, recv, _ = _receiver()
        with pytest.raises(ValueError):
            recv.receive(make_ack_packet(0, 1, 0.0, 0.0))


class TestOutOfOrder:
    def test_gap_produces_duplicate_acks(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0))
        recv.receive(_data(2))
        recv.receive(_data(3))
        assert [a.ack for a in acks] == [1, 1, 1]

    def test_hole_fill_jumps_cumulative_ack(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0))
        recv.receive(_data(2))
        recv.receive(_data(1))
        assert acks[-1].ack == 3

    def test_ooo_echoes_last_in_sequence_tsval(self):
        """Paper §4.1: on loss, TSecr is the TSval of the last in-sequence
        segment before the gap."""
        sim, recv, acks = _receiver()
        recv.receive(_data(0, now=1.0))
        recv.receive(_data(2, now=2.0))
        assert acks[-1].tsecr == 1.0

    def test_hole_filling_segment_echoes_its_own_tsval(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0, now=1.0))
        recv.receive(_data(2, now=2.0))
        recv.receive(_data(1, now=3.0))
        assert acks[-1].tsecr == 3.0

    def test_duplicate_segment_counted(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0))
        recv.receive(_data(0))
        assert recv.duplicate_packets == 1
        assert recv.unique_segments == 1

    def test_below_rcv_nxt_still_acked(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0))
        recv.receive(_data(0))
        assert acks[-1].ack == 1


class TestSack:
    def test_sack_reports_ooo_ranges(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0))
        recv.receive(_data(2))
        recv.receive(_data(3))
        blocks = acks[-1].sacks
        assert blocks[0].start == 2 and blocks[0].end == 4

    def test_most_recent_block_first(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0))
        recv.receive(_data(5))
        recv.receive(_data(2))
        blocks = acks[-1].sacks
        assert blocks[0].start == 2  # block containing the latest arrival

    def test_at_most_three_blocks(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0))
        for seq in (2, 4, 6, 8, 10):
            recv.receive(_data(seq))
        assert len(acks[-1].sacks) <= 3

    def test_no_sacks_when_disabled(self):
        sim, recv, acks = _receiver(sack=False)
        recv.receive(_data(0))
        recv.receive(_data(2))
        assert acks[-1].sacks == []

    def test_no_sacks_when_in_order(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0))
        assert acks[-1].sacks == []

    def test_sack_cleared_after_hole_filled(self):
        sim, recv, acks = _receiver()
        recv.receive(_data(0))
        recv.receive(_data(2))
        recv.receive(_data(1))
        assert acks[-1].sacks == []


class TestDelayedAck:
    def _delayed(self):
        sim = Simulator()
        acks = []
        recv = TcpReceiver(
            sim, flow_id=0, send_ack=lambda p: acks.append((sim.now, p.ack)),
            delayed_ack=True,
        )
        return sim, recv, acks

    def test_every_second_in_order_segment_acked(self):
        sim, recv, acks = self._delayed()
        for seq in range(4):
            recv.receive(_data(seq))
        assert acks == [(0.0, 2), (0.0, 4)]

    def test_lone_segment_acked_by_timer(self):
        sim, recv, acks = self._delayed()
        recv.receive(_data(0))
        sim.run(until=1.0)
        assert acks == [(pytest.approx(0.040), 1)]

    def test_duplicate_of_last_segment_acked_at_once(self):
        """A duplicate of segment ``rcv_nxt - 1`` is out-of-order data
        (RFC 5681 §4.2): it gets an immediate duplicate ACK, not one
        held for the 40 ms timer."""
        sim, recv, acks = self._delayed()
        recv.receive(_data(0))
        recv.receive(_data(1))
        recv.receive(_data(1))
        sim.run(until=1.0)
        assert acks == [(0.0, 2), (0.0, 2)]

    def test_hole_fill_acked_at_once(self):
        sim, recv, acks = self._delayed()
        recv.receive(_data(1))
        recv.receive(_data(0))
        assert acks == [(0.0, 0), (0.0, 2)]
