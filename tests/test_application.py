"""Tests for application traffic models and app-limited sending."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.tcp.application import (
    Application,
    BulkApplication,
    ConstantBitrateApplication,
    OnOffApplication,
    TraceApplication,
    _floor_segments,
)
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

from tests.reference.application import fraction_floor_segments
from tests.test_sender import FixedRate, FixedWindow, Wire

#: Seconds: up to 1e15, subnormals included (the default for an
#: interval that reaches zero), plus whole numbers passed as ``int``.
SECONDS = st.one_of(
    st.floats(min_value=0.0, max_value=1e15),
    st.floats(min_value=0.0, max_value=1e-300),
    st.integers(min_value=0, max_value=10**15),
)
#: Rates: dyadic, non-dyadic (a third of a megabyte has no finite binary
#: expansion), tiny, huge, and ``int``.
RATES = st.one_of(
    st.sampled_from([1e6 / 3, 2e6, 1_500_000.0, 0.1, 1e-310, 123_456.789]),
    st.floats(min_value=1e-3, max_value=1e12),
    st.integers(min_value=1, max_value=10**12),
)
SEGMENTS = st.one_of(st.just(1500), st.integers(min_value=1, max_value=9000))


class TestFloorSegments:
    """``_floor_segments`` against the frozen ``Fraction`` form."""

    @given(SECONDS, RATES, SEGMENTS)
    @settings(max_examples=500, deadline=None)
    def test_equals_fraction_form(self, seconds, rate, segment):
        assert _floor_segments(seconds, rate, segment) \
            == fraction_floor_segments(seconds, rate, segment)

    @given(st.floats(min_value=-1e9, max_value=0.0), RATES, SEGMENTS)
    @settings(max_examples=100, deadline=None)
    def test_negative_quotient_truncates_like_fraction_form(
            self, seconds, rate, segment):
        assert _floor_segments(seconds, rate, segment) \
            == fraction_floor_segments(seconds, rate, segment)

    @given(SECONDS, st.floats(min_value=0.0, max_value=1e6), RATES, SEGMENTS)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_seconds(self, seconds, step, rate, segment):
        assert _floor_segments(seconds, rate, segment) \
            <= _floor_segments(seconds + step, rate, segment)

    def test_non_dyadic_rate_at_large_seconds(self):
        # Here the float product is off by whole segments (1e15 s gives
        # ...208 where the exact quotient of the binary values is ...209).
        for seconds in (1.5e12, 1e15, 999_999_999_999_999.9):
            exact = fraction_floor_segments(seconds, 1e6 / 3, 1500)
            assert _floor_segments(seconds, 1e6 / 3, 1500) == exact
        assert int(1e15 * (1e6 / 3) / 1500) != exact

    @pytest.mark.parametrize("bad,error", [
        (float("inf"), OverflowError),
        (float("-inf"), OverflowError),
        (float("nan"), ValueError),
    ])
    def test_non_finite_raises_like_fraction_form(self, bad, error):
        for args in ((bad, 1e6, 1500), (1.0, bad, 1500)):
            with pytest.raises(error):
                fraction_floor_segments(*args)
            with pytest.raises(error):
                _floor_segments(*args)

    def test_zero_segment_raises_like_fraction_form(self):
        with pytest.raises(ZeroDivisionError):
            fraction_floor_segments(1.0, 1e6, 0)
        with pytest.raises(ZeroDivisionError):
            _floor_segments(1.0, 1e6, 0)


class TestBulk:
    def test_unlimited(self):
        app = BulkApplication()
        assert app.produced(1e9) is None
        assert app.total() is None

    def test_capped(self):
        app = BulkApplication(100)
        assert app.produced(0.0) == 100
        assert app.total() == 100

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BulkApplication(-1)


class TestConstantBitrate:
    def test_linear_production(self):
        app = ConstantBitrateApplication(rate=150_000.0, segment_bytes=1500)
        assert app.produced(0.0) == 0
        assert app.produced(1.0) == 100
        assert app.produced(2.5) == 250

    def test_start_offset(self):
        app = ConstantBitrateApplication(rate=15_000.0, start=5.0)
        assert app.produced(5.0) == 0
        assert app.produced(6.0) == 10

    def test_duration_caps_production(self):
        app = ConstantBitrateApplication(rate=15_000.0, duration=2.0)
        assert app.produced(10.0) == 20
        assert app.total() == 20

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ConstantBitrateApplication(rate=0.0)
        with pytest.raises(ValueError):
            ConstantBitrateApplication(rate=1.0, segment_bytes=0)

    @given(st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, t):
        app = ConstantBitrateApplication(rate=123_456.0)
        assert app.produced(t) <= app.produced(t + 1.0)

    def test_no_float_drift_at_large_now(self):
        """Regression: the float product ``now · rate / segment`` drifts
        past 2^53 and over-counts — e.g. 1.5 MB/s at t = 100000.036 s
        used to report 100000036 segments where the closed form floors
        to ...035.  The count must match the exact floor at any t."""
        from fractions import Fraction

        for rate, t in [
            (1_500_000.0, 100_000.036),
            (1_500_000.0, 200_000.004),
            (2_400_000.0, 100_000.06),
            (300_000.0, 1_000_000.08),
        ]:
            app = ConstantBitrateApplication(rate=rate, segment_bytes=1500)
            exact = int(Fraction(t) * Fraction(rate) / 1500)
            assert app.produced(t) == exact

    @given(st.floats(min_value=1e5, max_value=1e7))
    @settings(max_examples=100, deadline=None)
    def test_closed_form_at_large_now(self, t):
        from fractions import Fraction

        app = ConstantBitrateApplication(rate=1_500_000.0, segment_bytes=1500)
        assert app.produced(t) == int(Fraction(t) * 1_500_000 / 1500)
        # Monotone across the tick granularity that exposed the drift.
        assert app.produced(t) <= app.produced(t + 0.004)

    def test_onoff_no_float_drift_at_large_now(self):
        from fractions import Fraction

        app = OnOffApplication(rate=2_400_000.0, on_seconds=1.0,
                               off_seconds=0.0, segment_bytes=1500)
        t = 100_000.06
        assert app.produced(t) == int(Fraction(t) * 2_400_000 / 1500)


class TestOnOff:
    def test_on_period_produces(self):
        app = OnOffApplication(rate=15_000.0, on_seconds=1.0, off_seconds=1.0)
        assert app.produced(1.0) == 10
        assert app.produced(2.0) == 10  # silent second
        assert app.produced(3.0) == 20

    def test_zero_off_is_cbr(self):
        app = OnOffApplication(rate=15_000.0, on_seconds=1.0, off_seconds=0.0)
        assert app.produced(5.0) == 50

    @given(st.floats(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, t):
        app = OnOffApplication(rate=30_000.0, on_seconds=0.7, off_seconds=0.3)
        assert app.produced(t) <= app.produced(t + 0.5)


class TestTraceApplication:
    def test_counts_past_timestamps(self):
        app = TraceApplication([0.1, 0.5, 0.5, 2.0])
        assert app.produced(0.0) == 0
        assert app.produced(0.5) == 3
        assert app.produced(10.0) == 4
        assert app.total() == 4

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            TraceApplication([-1.0])


class TestAppLimitedSending:
    def _harness(self, cc, app):
        sim = Simulator()
        wire = Wire(sim)
        delivered = []
        wire.receiver = TcpReceiver(
            sim, 0, send_ack=wire.send_ack, ts_granularity=0.0,
            on_data=lambda p, now: delivered.append((now, p.seq)),
        )
        sender = TcpSender(sim, 0, cc, send_packet=wire.send_data, application=app)
        wire.sender = sender
        return sim, sender, delivered

    def test_cbr_source_sent_at_production_rate(self):
        app = ConstantBitrateApplication(rate=150_000.0)  # 100 seg/s
        sim, sender, delivered = self._harness(FixedWindow(cwnd=50), app)
        sender.start()
        sim.run(until=5.0)
        assert sender.segments_sent == pytest.approx(500, abs=5)

    def test_window_sender_survives_silence_gaps(self):
        """An ACK-clocked sender must resume after the app goes quiet
        (nothing in flight means nothing clocks it — the poller does)."""
        app = OnOffApplication(rate=150_000.0, on_seconds=0.5, off_seconds=1.0)
        sim, sender, delivered = self._harness(FixedWindow(cwnd=50), app)
        sender.start()
        sim.run(until=4.0)
        # Two full ON periods (0-0.5, 1.5-2.0, 3.0-3.5) => ~150 segments.
        assert sender.segments_sent > 100
        # Deliveries happen in at least two distinct bursts.
        times = [t for t, _ in delivered]
        assert max(times) > 3.0

    def test_rate_sender_app_limited(self):
        app = ConstantBitrateApplication(rate=75_000.0)  # 50 seg/s
        sim, sender, delivered = self._harness(FixedRate(rate=1.5e6), app)
        sender.start()
        sim.run(until=4.0)
        # Pacing allows 1000 seg/s but the app only produces 50/s.
        assert sender.segments_sent == pytest.approx(200, abs=5)

    def test_source_behind_next_seq_sends_nothing(self):
        """``_send_many`` asks the application once and clamps at zero:
        a source reporting fewer segments than were already sent (a
        negative new-data count) transmits nothing and leaves the
        sequence state alone."""
        class Receding(Application):
            level = 6

            def produced(self, now):
                return self.level

        app = Receding()
        sim, sender, _ = self._harness(FixedWindow(cwnd=4), app)
        sender.start()
        assert (sender.segments_sent, sender.next_seq) == (4, 4)
        app.level = 2
        assert sender._send_many(3) == 0
        assert (sender.segments_sent, sender.next_seq) == (4, 4)
        app.level = 5
        assert sender._send_many(3) == 1
        assert sender.next_seq == 5

    def test_finite_cbr_transfer_completes(self):
        done = []
        app = ConstantBitrateApplication(rate=150_000.0, duration=1.0)
        sim = Simulator()
        wire = Wire(sim)
        wire.receiver = TcpReceiver(sim, 0, send_ack=wire.send_ack, ts_granularity=0.0)
        sender = TcpSender(
            sim, 0, FixedWindow(cwnd=20), send_packet=wire.send_data,
            application=app, on_complete=lambda: done.append(sim.now),
        )
        wire.sender = sender
        sender.start()
        sim.run(until=5.0)
        assert done
        assert sender.snd_una == app.total()


class TestPropRateAppLimited:
    def test_proprate_cbr_media_flow_delivers(self):
        """Regression: PropRate's Slow-Start probe bursts must survive an
        application that has not produced data yet (the credits are kept
        for later ticks, not discarded)."""
        from repro.core.proprate import PropRate
        from repro.experiments.runner import (
            FlowSpec,
            cellular_path_config,
            run_experiment,
        )
        from repro.traces.generator import constant_rate_trace

        trace = constant_rate_trace(1.5e6, 16.0)
        config = cellular_path_config(trace)
        media = FlowSpec(
            cc_factory=lambda: PropRate(0.030),
            name="media",
            application=ConstantBitrateApplication(rate=75_000.0),
            measure_start=5.0,
        )
        result = run_experiment(config, [media], duration=15.0)[0]
        # 50 seg/s of 1500 B => 75 kB/s goodput, delivered at low delay.
        assert result.throughput == pytest.approx(75_000.0, rel=0.15)
        assert result.delay.mean < 0.100
