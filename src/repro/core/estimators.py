"""Sender-side estimation from TCP timestamps (paper §4.1–4.2, Figure 6).

Congestion control is strictly a sender-side initiative in PropRate: the
receiver runs a stock TCP stack with the timestamp option enabled.  Two
quantities are recovered from the ACK stream:

* the **buffer delay** — the relative one-way delay ``RD = tr − ts``
  (receiver TSval minus echoed sender TSval) minus the minimum relative
  one-way delay seen in the recent past, ``t_buff = RD − RD_min``;
* the **receive rate ρ** — from (receiver TSval, cumulative bytes
  delivered) pairs: the receiver's timestamps embed packet arrival times
  in the ACKs.  The instantaneous throughput is measured over a sliding
  window of 50 distinct receiver timestamps, capped at 500 ms, and
  smoothed with an EWMA.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.util.windows import Ewma, SlidingWindowMin, WindowedMax

#: Sliding-window sizing for the rate estimator (paper §4.2, following
#: the measurement study it cites: 50 bursts, at most 500 ms).
RATE_WINDOW_TIMESTAMPS = 50
RATE_WINDOW_MAX_SPAN = 0.500
#: Minimum window span (seconds).  Zero by default — the paper's window
#: is purely "50 distinct timestamps, at most 500 ms", which lets a
#: Slow-Start probe burst measure the *link* rate from two adjacent
#: receiver ticks before paced (self-limited) traffic dilutes the
#: window.  A non-zero floor trades that responsiveness for less noise
#: with sub-10ms receiver clocks; the timestamp-granularity ablation
#: explores the trade-off.
RATE_WINDOW_MIN_SPAN = 0.0

#: How far back the RD_min baseline looks.  The paper says "the recent
#: past"; a PropRate with another window takes
#: ``delay_estimator=partial(BufferDelayEstimator, window=...)``.  The
#: window must comfortably exceed buffer-full occupancy periods — with a
#: short window the baseline absorbs the standing queue (RD_min drifts
#: up to RD_min + D_min) and the buffer delay is systematically
#: under-estimated, destabilising the feedback loop.
DEFAULT_RDMIN_WINDOW = 60.0

#: EWMA gain for smoothing the instantaneous receive rate.
DEFAULT_RATE_EWMA_ALPHA = 1.0 / 8.0


class ReceiveRateEstimator:
    """Estimate the receive rate ρ from receiver timestamps (Fig. 6(b)).

    Feed :meth:`on_ack` with each ACK's receiver TSval and the running
    count of delivered bytes.  ACKs sharing a TSval collapse into one
    sample at that timestamp (the receiver's clock granularity limits
    resolution — this is why Slow Start may need to double its burst).
    """

    #: Optional epoch callback (set by telemetry when tracing is
    #: active): called with "rate-reset" whenever the measurement
    #: window restarts.
    on_epoch = None

    def __init__(
        self,
        window_timestamps: int = RATE_WINDOW_TIMESTAMPS,
        max_span: float = RATE_WINDOW_MAX_SPAN,
        min_span: float = RATE_WINDOW_MIN_SPAN,
        ewma_alpha: float = DEFAULT_RATE_EWMA_ALPHA,
    ) -> None:
        if window_timestamps < 2:
            raise ValueError("need at least two timestamps to form a rate")
        if not 0 <= min_span <= max_span:
            raise ValueError("need 0 <= min_span <= max_span")
        self.window_timestamps = window_timestamps
        self.max_span = max_span
        self.min_span = min_span
        self._samples: Deque[Tuple[float, int]] = deque()  # (tsval, delivered)
        self._ewma = Ewma(ewma_alpha)
        self.instantaneous_rate: Optional[float] = None

    def on_ack(self, receiver_ts: float, delivered_bytes: int) -> None:
        """Fold one ACK into the estimator."""
        if self._samples:
            last_ts = self._samples[-1][0]
            if receiver_ts < last_ts:
                return  # receiver clock should be monotone; ignore stragglers
            if receiver_ts == last_ts:
                # Same receiver tick: keep the latest cumulative count.
                self._samples[-1] = (
                    receiver_ts,
                    max(self._samples[-1][1], delivered_bytes),
                )
                self._trim(receiver_ts)
                self._update_rate()
                return
            if receiver_ts - last_ts > self.max_span:
                # The whole window predates the cap: a rate formed
                # across the gap would average over the idle period.
                # Expire it and rebuild from fresh timestamps; the EWMA
                # (if primed) carries the estimate across the gap.
                self._samples.clear()
                self.instantaneous_rate = None
        self._samples.append((receiver_ts, delivered_bytes))
        self._trim(receiver_ts)
        self._update_rate()

    def _trim(self, latest_ts: float) -> None:
        while (
            len(self._samples) > self.window_timestamps
            and latest_ts - self._samples[1][0] >= self.min_span
        ):
            self._samples.popleft()
        while (
            len(self._samples) > 2
            and self._samples[0][0] < latest_ts - self.max_span
        ):
            self._samples.popleft()

    def _update_rate(self) -> None:
        if len(self._samples) < 2:
            return
        first_ts, first_bytes = self._samples[0]
        last_ts, last_bytes = self._samples[-1]
        span = last_ts - first_ts
        if span <= 0 or last_bytes <= first_bytes:
            return
        self.instantaneous_rate = (last_bytes - first_bytes) / span
        self._ewma.update(self.instantaneous_rate)

    @property
    def rate(self) -> Optional[float]:
        """Smoothed receive-rate estimate ρ in bytes/second, or None."""
        return self._ewma.value

    @property
    def has_estimate(self) -> bool:
        return self._ewma.value is not None

    @property
    def distinct_timestamps(self) -> int:
        return len(self._samples)

    def reset(self) -> None:
        """Start a fresh measurement, EWMA included (Monitor / Slow Start)."""
        self._samples.clear()
        self.instantaneous_rate = None
        self._ewma.reset()
        cb = self.on_epoch
        if cb is not None:
            cb("rate-reset")


class BufferDelayEstimator:
    """Estimate the instantaneous buffer delay t_buff (Fig. 6(a)).

    ``RD = tr − ts`` mixes the (unknown) clock offset with propagation
    delay; both cancel in ``t_buff = RD − RD_min`` as long as the
    baseline ``RD_min`` reflects an empty buffer sometime in the last
    ``window`` seconds.  Nothing resets the baseline: a one-way delay
    shift (handover, signal change) ages out of it with the window.

    The receiver's 10 ms timestamp quantisation puts ±granularity noise
    on every RD sample; ``tbuff_smooth`` (a light EWMA of the raw
    estimate) is the signal the state machine switches on, while
    ``tbuff`` exposes the raw per-ACK value.
    """

    SMOOTH_ALPHA = 0.25

    def __init__(self, window: float = DEFAULT_RDMIN_WINDOW) -> None:
        self._min_filter = SlidingWindowMin(window)
        self._smooth = Ewma(self.SMOOTH_ALPHA)
        self.tbuff: Optional[float] = None

    @property
    def tbuff_smooth(self) -> Optional[float]:
        return self._smooth.value

    def on_ack(self, now: float, relative_one_way_delay: float) -> float:
        """Fold one RD sample; returns the updated t_buff estimate."""
        rd_min = self._min_filter.update(now, relative_one_way_delay)
        self.tbuff = max(0.0, relative_one_way_delay - rd_min)
        self._smooth.update(self.tbuff)
        return self.tbuff

    @property
    def rd_min(self) -> Optional[float]:
        return self._min_filter.current()


class MaxFilterRateEstimator(ReceiveRateEstimator):
    """BBR-style variant: ρ = *maximum* recent instantaneous throughput.

    The paper argues (§2) that estimating the bottleneck bandwidth as the
    windowed maximum "is too aggressive and tends to over-estimate the
    available bandwidth because cellular networks are highly volatile",
    which is why PropRate smooths with an EWMA instead.  This estimator
    exists to ablate that design choice: drop it into PropRate via
    ``rate_estimator=MaxFilterRateEstimator`` and compare
    (``repro reproduce A1``).
    """

    def __init__(
        self,
        window_timestamps: int = RATE_WINDOW_TIMESTAMPS,
        max_span: float = RATE_WINDOW_MAX_SPAN,
        filter_window: float = 2.0,
    ) -> None:
        super().__init__(window_timestamps=window_timestamps, max_span=max_span)
        self._max_filter = WindowedMax(filter_window)
        self._last_ts: Optional[float] = None

    def _update_rate(self) -> None:
        super()._update_rate()
        if self.instantaneous_rate is not None and self._samples:
            self._last_ts = self._samples[-1][0]
            self._max_filter.update(self._last_ts, self.instantaneous_rate)

    @property
    def rate(self) -> Optional[float]:
        return self._max_filter.current(self._last_ts)

    @property
    def has_estimate(self) -> bool:
        return self.rate is not None

    def reset(self) -> None:
        super().reset()
        self._max_filter.reset()
        # The timestamp must fall with the filter: a stale _last_ts would
        # expire fresh post-reset samples against the previous
        # measurement epoch's clock.
        self._last_ts = None
