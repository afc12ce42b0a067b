"""Tests for trace-driven cellular links and wired links."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import CellularLink, WiredLink
from repro.sim.packet import ACK_PACKET_BYTES, make_data_packet
from repro.sim.queues import DropTailQueue
from repro.traces.generator import constant_rate_trace
from repro.traces.trace import Trace


def _pkt(seq=0, size=1500):
    return make_data_packet(flow_id=0, seq=seq, now=0.0, size=size)


class TestCellularLink:
    def _link(self, sim, trace=None, capacity=100, prop=0.0, loop=True):
        delivered = []
        link = CellularLink(
            sim,
            trace or Trace([0.1, 0.2, 0.3, 0.4], 0.5),
            DropTailQueue(capacity=capacity),
            prop_delay=prop,
            on_deliver=lambda p: delivered.append((sim.now, p)),
            loop=loop,
        )
        return link, delivered

    def test_delivers_at_opportunity_times(self):
        sim = Simulator()
        link, delivered = self._link(sim)
        for i in range(3):
            link.enqueue(_pkt(i))
        sim.run(until=1.0)
        assert [p.seq for _, p in delivered] == [0, 1, 2]
        assert [t for t, _ in delivered] == pytest.approx([0.1, 0.2, 0.3])

    def test_propagation_delay_added(self):
        sim = Simulator()
        link, delivered = self._link(sim, prop=0.05)
        link.enqueue(_pkt(0))
        sim.run(until=1.0)
        assert delivered[0][0] == pytest.approx(0.15)

    def test_trace_loops(self):
        sim = Simulator()
        trace = Trace([0.1], 0.5, name="one-per-half-second")
        link, delivered = self._link(sim, trace=trace)
        for i in range(3):
            link.enqueue(_pkt(i))
        sim.run(until=2.0)
        assert [t for t, _ in delivered] == pytest.approx([0.1, 0.6, 1.1])

    def test_no_loop_stops_at_trace_end(self):
        sim = Simulator()
        trace = Trace([0.1], 0.5)
        link, delivered = self._link(sim, trace=trace, loop=False)
        link.enqueue(_pkt(0))
        link.enqueue(_pkt(1))
        sim.run(until=5.0)
        assert len(delivered) == 1

    def test_opportunities_wasted_while_idle(self):
        sim = Simulator()
        link, delivered = self._link(sim)
        sim.run(until=0.25)  # opportunities at 0.1, 0.2 wasted
        link.enqueue(_pkt(0))
        sim.run(until=1.0)
        assert delivered[0][0] == pytest.approx(0.3)

    def test_multiple_small_packets_share_opportunity(self):
        sim = Simulator()
        link, delivered = self._link(sim)
        for i in range(5):
            link.enqueue(_pkt(i, size=ACK_PACKET_BYTES))
        sim.run(until=0.15)
        # 5 * 60 = 300 bytes <= 1500: all five ride the first opportunity.
        assert len(delivered) == 5
        assert all(t == pytest.approx(0.1) for t, _ in delivered)

    def test_full_size_packets_one_per_opportunity(self):
        sim = Simulator()
        link, delivered = self._link(sim)
        link.enqueue(_pkt(0))
        link.enqueue(_pkt(1))
        sim.run(until=0.15)
        assert len(delivered) == 1

    def test_drop_when_queue_full(self):
        sim = Simulator()
        link, _ = self._link(sim, capacity=2)
        assert link.enqueue(_pkt(0))
        assert link.enqueue(_pkt(1))
        assert not link.enqueue(_pkt(2))

    def test_counters(self):
        sim = Simulator()
        link, _ = self._link(sim)
        link.enqueue(_pkt(0))
        sim.run(until=1.0)
        assert link.delivered_packets == 1
        assert link.delivered_bytes == 1500

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            CellularLink(Simulator(), Trace([], 1.0), DropTailQueue())

    def test_throughput_matches_trace_capacity_when_saturated(self):
        sim = Simulator()
        trace = constant_rate_trace(1_500_000.0, 10.0)  # 1000 pkt/s
        link, delivered = self._link(sim, trace=trace)

        def refill():
            while link.queue_length < 50:
                link.enqueue(_pkt())
            sim.schedule(0.01, refill)

        refill()
        sim.run(until=2.0)
        rate = len(delivered) / 2.0
        assert rate == pytest.approx(1000.0, rel=0.02)


class TestPropDelayValidation:
    """A negative propagation delay is a ValueError naming the link and
    the value, in both link constructors and the handover setter."""

    def test_cellular_constructor(self):
        with pytest.raises(ValueError, match=r"link 'down'.*-0\.01"):
            CellularLink(Simulator(), Trace([0.1], 0.5), DropTailQueue(10),
                         prop_delay=-0.01, name="down")

    def test_wired_constructor(self):
        with pytest.raises(ValueError, match=r"link 'wan'.*-0\.01"):
            WiredLink(Simulator(), rate=1e6, queue=DropTailQueue(10),
                      prop_delay=-0.01, name="wan")

    def test_cellular_setter_keeps_the_old_delay(self):
        link = CellularLink(Simulator(), Trace([0.1], 0.5), DropTailQueue(10),
                            prop_delay=0.02)
        with pytest.raises(ValueError, match=r"link 'cell'.*-0\.5"):
            link.prop_delay = -0.5
        assert link.prop_delay == 0.02
        link.prop_delay = 0.0
        assert link.prop_delay == 0.0


class TestWiredLink:
    def test_service_time_is_size_over_rate(self):
        sim = Simulator()
        delivered = []
        link = WiredLink(
            sim, rate=15000.0, queue=DropTailQueue(10), prop_delay=0.0,
            on_deliver=lambda p: delivered.append(sim.now),
        )
        link.enqueue(_pkt(0))  # 1500 B at 15 kB/s -> 0.1 s
        sim.run(until=1.0)
        assert delivered == pytest.approx([0.1])

    def test_back_to_back_service(self):
        sim = Simulator()
        delivered = []
        link = WiredLink(
            sim, rate=15000.0, queue=DropTailQueue(10), prop_delay=0.0,
            on_deliver=lambda p: delivered.append(sim.now),
        )
        link.enqueue(_pkt(0))
        link.enqueue(_pkt(1))
        sim.run(until=1.0)
        assert delivered == pytest.approx([0.1, 0.2])

    def test_propagation_after_service(self):
        sim = Simulator()
        delivered = []
        link = WiredLink(
            sim, rate=15000.0, queue=DropTailQueue(10), prop_delay=0.5,
            on_deliver=lambda p: delivered.append(sim.now),
        )
        link.enqueue(_pkt(0))
        sim.run(until=1.0)
        assert delivered == pytest.approx([0.6])

    def test_idle_then_resume(self):
        sim = Simulator()
        delivered = []
        link = WiredLink(
            sim, rate=15000.0, queue=DropTailQueue(10), prop_delay=0.0,
            on_deliver=lambda p: delivered.append(sim.now),
        )
        link.enqueue(_pkt(0))
        sim.run(until=0.5)
        link.enqueue(_pkt(1))
        sim.run(until=1.0)
        assert delivered == pytest.approx([0.1, 0.6])

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            WiredLink(Simulator(), rate=0.0, queue=DropTailQueue(10))

    def test_drop_when_full(self):
        sim = Simulator()
        link = WiredLink(sim, rate=1e6, queue=DropTailQueue(1), prop_delay=0.0)
        assert link.enqueue(_pkt(0))  # immediately in service
        assert link.enqueue(_pkt(1))  # queued
        assert not link.enqueue(_pkt(2))
