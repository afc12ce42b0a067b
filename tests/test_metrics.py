"""Tests for delivery records and summary statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.collector import DeliveryCollector
from repro.metrics.stats import delay_summary, jain_fairness
from repro.sim.packet import make_data_packet
from tests.reference.collector import ReferenceCollector


def _deliver(collector, seq, sent, arrived, retransmit=False):
    pkt = make_data_packet(flow_id=0, seq=seq, now=sent, retransmit=retransmit)
    collector.on_data(pkt, arrived)


class TestDeliveryCollector:
    def test_records_one_way_delay(self):
        c = DeliveryCollector()
        _deliver(c, seq=0, sent=1.0, arrived=1.05)
        assert len(c) == 1
        assert c.records[0].one_way_delay == pytest.approx(0.05)

    def test_duplicates_excluded(self):
        c = DeliveryCollector()
        _deliver(c, 0, 1.0, 1.05)
        _deliver(c, 0, 1.2, 1.25, retransmit=True)
        assert len(c) == 1
        assert c.duplicates == 1

    def test_delays_filtered_by_window(self):
        c = DeliveryCollector()
        _deliver(c, 0, 0.0, 1.0)
        _deliver(c, 1, 0.0, 2.0)
        _deliver(c, 2, 0.0, 3.0)
        assert len(c.delays(start=1.5)) == 2
        assert len(c.delays(start=1.5, end=2.5)) == 1

    def test_throughput_over_window(self):
        c = DeliveryCollector()
        for i in range(10):
            _deliver(c, i, 0.0, 1.0 + i * 0.1)
        # 10 x 1500 B over [1.0, 2.0)
        assert c.throughput(1.0, 2.0) == pytest.approx(15000.0)

    def test_throughput_rejects_empty_window(self):
        with pytest.raises(ValueError):
            DeliveryCollector().throughput(2.0, 1.0)

    def test_retransmit_flag_recorded(self):
        c = DeliveryCollector()
        _deliver(c, 0, 0.0, 0.1, retransmit=True)
        assert c.records[0].was_retransmit

    def test_records_is_a_copy(self):
        c = DeliveryCollector()
        _deliver(c, 0, 0.0, 0.1)
        c.records.clear()
        assert len(c.records) == 1


#: One arrival: (seq, sent-time offset, size, retransmit, time step).  A
#: zero step repeats the previous arrival time; seqs drawn from a small
#: range repeat, so duplicates are common.
_arrival = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=0.5),
    st.sampled_from([60, 1000, 1500]),
    st.booleans(),
    st.sampled_from([0.0, 0.0, 0.001, 0.01, 0.0137, 0.25]),
)


class TestCollectorMatchesReference:
    """The columnar collector against the object-per-record reference."""

    @given(
        arrivals=st.lists(_arrival, max_size=120),
        picks=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                       min_size=2, max_size=2),
        offsets=st.lists(st.sampled_from([-0.01, -1e-9, 0.0, 1e-9, 0.01]),
                         min_size=2, max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_query_is_identical(self, arrivals, picks, offsets):
        fast, ref = DeliveryCollector(), ReferenceCollector()
        now = 0.5
        times = [0.0]
        for seq, back, size, rtx, step in arrivals:
            now += step
            times.append(now)
            pkt = make_data_packet(flow_id=0, seq=seq, now=now - back,
                                   retransmit=rtx, size=size)
            fast.on_data(pkt, now)
            ref.on_data(pkt, now)

        assert fast.records == ref.records
        assert len(fast) == len(ref)
        assert fast.duplicates == ref.duplicates
        assert fast.arrival_times().tolist() == ref.arrival_times().tolist()
        # Window edges on record times exactly, and a hair either side.
        start, end = (times[p % len(times)] + o
                      for p, o in zip(picks, offsets))
        windows = [(0.0, None), (start, None), (start, end), (end, start)]
        for lo, hi in windows:
            got, want = fast.delays(lo, hi), ref.delays(lo, hi)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
            assert fast.delivered_bytes(lo, hi) == ref.delivered_bytes(lo, hi)
            if hi is not None and hi > lo:
                assert fast.throughput(lo, hi) == ref.throughput(lo, hi)


class TestDelaySummary:
    def test_basic_statistics(self):
        s = delay_summary([0.01, 0.02, 0.03, 0.04, 0.05])
        assert s.count == 5
        assert s.mean == pytest.approx(0.03)
        assert s.median == pytest.approx(0.03)
        assert s.maximum == pytest.approx(0.05)

    def test_p95_reflects_tail(self):
        delays = [0.01] * 95 + [1.0] * 5
        s = delay_summary(delays)
        assert s.p95 >= 0.01
        assert s.p99 > 0.5

    def test_empty_sample_gives_nan(self):
        s = delay_summary([])
        assert s.count == 0
        assert np.isnan(s.mean)
        assert np.isnan(s.p95)

    def test_ms_helpers(self):
        s = delay_summary([0.05])
        assert s.mean_ms == pytest.approx(50.0)
        assert s.p95_ms == pytest.approx(50.0)


class TestJainFairness:
    def test_equal_shares_are_fair(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_is_unfair(self):
        assert jain_fairness([10.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_all_zero_defined_as_fair(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

