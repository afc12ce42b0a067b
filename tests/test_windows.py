"""Tests for the windowed filters (EWMA, sliding min/max)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.windows import Ewma, SlidingWindowMin, WindowedMax


class TestEwma:
    def test_first_sample_initialises(self):
        e = Ewma(0.5)
        assert e.value is None
        assert e.update(10.0) == 10.0

    def test_moves_toward_samples(self):
        e = Ewma(0.5)
        e.update(0.0)
        assert e.update(10.0) == 5.0
        assert e.update(10.0) == 7.5

    def test_paper_gain_one_eighth(self):
        e = Ewma(1.0 / 8.0)
        e.update(0.0)
        assert e.update(8.0) == pytest.approx(1.0)

    def test_alpha_one_tracks_exactly(self):
        e = Ewma(1.0)
        e.update(3.0)
        assert e.update(7.0) == 7.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            Ewma(0.0)
        with pytest.raises(ValueError):
            Ewma(1.5)

    def test_reset(self):
        e = Ewma(0.5)
        e.update(5.0)
        e.reset()
        assert e.value is None

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_stays_within_sample_range(self, samples):
        e = Ewma(0.25)
        for s in samples:
            e.update(s)
        assert min(samples) <= e.value <= max(samples)


class TestSlidingWindowMin:
    def test_tracks_minimum(self):
        f = SlidingWindowMin(10.0)
        assert f.update(0.0, 5.0) == 5.0
        assert f.update(1.0, 3.0) == 3.0
        assert f.update(2.0, 7.0) == 3.0

    def test_expires_old_samples(self):
        f = SlidingWindowMin(1.0)
        f.update(0.0, 1.0)
        assert f.update(2.0, 5.0) == 5.0

    def test_current_with_time_expires(self):
        f = SlidingWindowMin(1.0)
        f.update(0.0, 1.0)
        f.update(0.5, 3.0)
        assert f.current(2.0) == 3.0 or f.current(2.0) is None
        # sample at 0.5 expires at t>1.5; at t=2.0 only it could remain
        f2 = SlidingWindowMin(1.0)
        f2.update(0.0, 1.0)
        assert f2.current(5.0) is None

    def test_current_without_time_keeps_state(self):
        f = SlidingWindowMin(1.0)
        f.update(0.0, 2.0)
        assert f.current() == 2.0

    def test_reset(self):
        f = SlidingWindowMin(1.0)
        f.update(0.0, 2.0)
        f.reset()
        assert f.current() is None

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SlidingWindowMin(0.0)
        # A NaN window fails every expiry comparison, so the first
        # sample would stay the minimum forever.
        with pytest.raises(ValueError, match="window must be positive"):
            SlidingWindowMin(float("nan"))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=-1e3, max_value=1e3),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, raw):
        samples = sorted(raw, key=lambda p: p[0])
        window = 10.0
        f = SlidingWindowMin(window)
        for i, (t, v) in enumerate(samples):
            got = f.update(t, v)
            expected = min(v2 for t2, v2 in samples[: i + 1] if t2 >= t - window)
            assert got == expected


class TestWindowedMax:
    def test_tracks_maximum(self):
        f = WindowedMax(10.0)
        assert f.update(0.0, 5.0) == 5.0
        assert f.update(1.0, 3.0) == 5.0
        assert f.update(2.0, 7.0) == 7.0

    def test_expiry_promotes_next_best(self):
        f = WindowedMax(1.0)
        f.update(0.0, 9.0)
        f.update(0.5, 4.0)
        assert f.update(1.2, 1.0) == 4.0

    def test_rejects_nan_window(self):
        with pytest.raises(ValueError, match="window must be positive"):
            WindowedMax(float("nan"))

    def test_window_attribute_adjustable(self):
        f = WindowedMax(10.0)
        f.update(0.0, 5.0)
        f.window = 0.5
        assert f.update(1.0, 1.0) == 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=-1e3, max_value=1e3),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, raw):
        samples = sorted(raw, key=lambda p: p[0])
        window = 10.0
        f = WindowedMax(window)
        for i, (t, v) in enumerate(samples):
            got = f.update(t, v)
            expected = max(v2 for t2, v2 in samples[: i + 1] if t2 >= t - window)
            assert got == expected
