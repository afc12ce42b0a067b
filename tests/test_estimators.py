"""Tests for the sender-side receive-rate and buffer-delay estimators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimators import (
    BufferDelayEstimator,
    MaxFilterRateEstimator,
    ReceiveRateEstimator,
)


class TestReceiveRateEstimator:
    def test_no_estimate_before_two_timestamps(self):
        est = ReceiveRateEstimator()
        est.on_ack(0.00, 1500)
        assert not est.has_estimate
        est.on_ack(0.00, 3000)  # same receiver tick: still one sample
        assert not est.has_estimate
        est.on_ack(0.01, 4500)
        assert est.has_estimate

    def test_rate_from_two_ticks(self):
        est = ReceiveRateEstimator()
        est.on_ack(0.00, 0)
        est.on_ack(0.01, 3000)
        assert est.rate == pytest.approx(300_000.0)

    def test_same_tick_keeps_latest_cumulative(self):
        est = ReceiveRateEstimator()
        est.on_ack(0.00, 0)
        est.on_ack(0.01, 1500)
        est.on_ack(0.01, 3000)
        assert est.instantaneous_rate == pytest.approx(300_000.0)

    def test_stale_timestamps_ignored(self):
        est = ReceiveRateEstimator()
        est.on_ack(0.02, 3000)
        est.on_ack(0.01, 6000)  # receiver clock went backwards: drop
        assert est.distinct_timestamps == 1

    def test_window_limited_to_n_timestamps(self):
        est = ReceiveRateEstimator(window_timestamps=5, max_span=100.0, min_span=0.0)
        for i in range(20):
            est.on_ack(i * 0.01, i * 1500)
        assert est.distinct_timestamps == 5

    def test_min_span_keeps_extra_timestamps(self):
        """With a fine receiver clock, 50 ticks span almost no time; the
        window is floored in seconds so the rate stays measurable."""
        est = ReceiveRateEstimator(window_timestamps=5, max_span=100.0, min_span=0.2)
        for i in range(100):
            est.on_ack(i * 0.01, i * 1500)
        first_ts = est._samples[0][0]
        last_ts = est._samples[-1][0]
        assert last_ts - first_ts >= 0.19

    def test_rejects_bad_min_span(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            ReceiveRateEstimator(min_span=1.0, max_span=0.5)

    def test_window_limited_to_max_span(self):
        est = ReceiveRateEstimator(window_timestamps=50, max_span=0.5)
        for i in range(100):
            est.on_ack(i * 0.1, i * 1500)
        first_ts = est._samples[0][0]
        assert first_ts >= 9.9 - 0.5 - 1e-9

    def test_idle_gap_expires_whole_window(self):
        est = ReceiveRateEstimator()  # max_span=0.5
        est.on_ack(0.0, 0)
        est.on_ack(0.1, 50_000)
        assert est.instantaneous_rate == pytest.approx(500_000.0)
        # A 3 s idle gap: a rate formed across it would average over the
        # silence (10 kB/s here) instead of the true burst rate.
        est.on_ack(3.1, 80_000)
        assert est.instantaneous_rate is None
        assert est.distinct_timestamps == 1
        assert est.rate == pytest.approx(500_000.0)  # EWMA carries over
        # The next ACK pairs with the post-gap sample only.
        est.on_ack(3.2, 130_000)
        assert est.instantaneous_rate == pytest.approx(500_000.0)

    def test_idle_gap_on_cold_estimator(self):
        est = ReceiveRateEstimator()
        est.on_ack(0.0, 0)
        est.on_ack(3.0, 1500)  # gap > max_span before any rate formed
        assert not est.has_estimate
        assert est.distinct_timestamps == 1

    def test_constant_rate_estimated_exactly(self):
        est = ReceiveRateEstimator()
        for i in range(100):
            est.on_ack(i * 0.01, i * 1500)
        assert est.rate == pytest.approx(150_000.0, rel=1e-6)

    def test_ewma_smooths_rate_changes(self):
        est = ReceiveRateEstimator(window_timestamps=3, max_span=10.0)
        for i in range(50):
            est.on_ack(i * 0.01, i * 1500)
        rate_before = est.rate
        # Rate doubles; the EWMA must move toward it gradually.
        for j in range(3):
            est.on_ack(0.5 + j * 0.01, 75_000 + j * 3000)
        assert rate_before < est.rate < 300_000.0

    def test_reset_clears_samples(self):
        est = ReceiveRateEstimator()
        est.on_ack(0.0, 0)
        est.on_ack(0.01, 1500)
        est.reset()
        assert not est.has_estimate
        assert est.distinct_timestamps == 0

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            ReceiveRateEstimator(window_timestamps=1)

    @given(
        rate=st.floats(min_value=1e4, max_value=1e7),
        granularity=st.sampled_from([0.001, 0.01, 0.05]),
    )
    @settings(max_examples=50, deadline=None)
    def test_recovers_any_constant_rate(self, rate, granularity):
        est = ReceiveRateEstimator()
        for i in range(200):
            t = i * granularity
            est.on_ack(t, int(rate * t))
        assert est.rate == pytest.approx(rate, rel=0.05)


class TestBufferDelayEstimator:
    def test_first_sample_is_baseline(self):
        est = BufferDelayEstimator()
        assert est.on_ack(0.0, 0.020) == 0.0

    def test_tbuff_is_rd_minus_rdmin(self):
        est = BufferDelayEstimator()
        est.on_ack(0.0, 0.020)
        assert est.on_ack(0.1, 0.055) == pytest.approx(0.035)

    def test_lower_rd_rebaselines(self):
        est = BufferDelayEstimator()
        est.on_ack(0.0, 0.030)
        est.on_ack(0.1, 0.020)
        assert est.tbuff == 0.0
        assert est.rd_min == pytest.approx(0.020)

    def test_baseline_expires_with_window(self):
        est = BufferDelayEstimator(window=1.0)
        est.on_ack(0.0, 0.020)
        est.on_ack(5.0, 0.050)  # the 0.020 baseline is long gone
        assert est.tbuff == 0.0

    def test_smooth_tracks_raw(self):
        est = BufferDelayEstimator()
        est.on_ack(0.0, 0.020)
        for i in range(50):
            est.on_ack(0.01 * (i + 1), 0.060)
        assert est.tbuff_smooth == pytest.approx(0.040, rel=0.01)

    def test_smooth_damps_single_spike(self):
        est = BufferDelayEstimator()
        est.on_ack(0.0, 0.020)
        for i in range(20):
            est.on_ack(0.01 * (i + 1), 0.020)
        est.on_ack(0.3, 0.120)  # one 100 ms outlier
        assert est.tbuff == pytest.approx(0.100)
        assert est.tbuff_smooth < 0.05

    def test_rejects_nan_window(self):
        # A NaN window would measure t_buff against the first RD forever.
        with pytest.raises(ValueError):
            BufferDelayEstimator(window=float("nan"))

    def test_negative_excursions_clamped(self):
        est = BufferDelayEstimator()
        est.on_ack(0.0, 0.020)
        assert est.on_ack(0.1, 0.015) >= 0.0


class TestMaxFilterRateEstimator:
    def test_windowed_max_of_instantaneous_rates(self):
        est = MaxFilterRateEstimator(filter_window=2.0)
        est.on_ack(0.0, 0)
        est.on_ack(0.1, 50_000)  # 500 kB/s
        est.on_ack(0.2, 80_000)  # window rate drops
        assert est.rate == pytest.approx(500_000.0)

    def test_reset_clears_filter_epoch(self):
        est = MaxFilterRateEstimator(filter_window=2.0)
        est.on_ack(10.0, 0)
        est.on_ack(10.1, 50_000)
        est.reset()
        assert est.rate is None
        assert est._last_ts is None
        # A fresh measurement epoch with an earlier clock must rebuild
        # cleanly — a stale _last_ts would expire the new samples
        # against the previous epoch's timebase.
        est.on_ack(0.0, 0)
        est.on_ack(0.1, 30_000)
        assert est.rate == pytest.approx(300_000.0)
