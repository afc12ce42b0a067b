"""PROTEUS (Xu et al., MobiSys 2013): forecast-based rate control.

PROTEUS observed that cellular network performance within a small time
window is self-correlated, and trains a regression tree over features of
the recent throughput history (means, variances, trends over multiple
lags) to forecast the achievable rate of the next window, pacing at the
forecast.  The original source was unavailable even to the paper's
authors, who reimplemented it from the description (§5) — as do we.

Substitution note (see DESIGN.md): the regression tree is replaced by a
direct conservative-quantile forecast over the same feature window — a
trend-adjusted low percentile of the recent per-window throughputs.
A tree trained on such features learns precisely this kind of
conditional low-quantile structure; the behavioural consequence the
paper measures (good latency from conservative forecasts, throughput
loss and sluggishness when the channel shifts regime) is preserved.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.tcp.congestion.base import AckSample, RateCongestionControl

WINDOW = 0.100          # forecast window length (seconds)
HISTORY_WINDOWS = 20    # feature horizon
QUANTILE = 0.25         # conservative forecast percentile
TREND_GAIN = 0.5        # how much of the recent trend the forecast follows
PROBE_GAIN = 1.30       # pace above the forecast: the forecast only sees
                        # delivered traffic, so pacing exactly at it can
                        # never rediscover freed capacity
MIN_RATE = 8 * 1500.0   # bytes/s floor


class Proteus(RateCongestionControl):
    """Forecast the next window's achievable rate; pace at the forecast."""

    name = "PROTEUS"
    sending_regulation = "Rate-based"
    congestion_trigger = "Rate Forecast"
    # on_tick is an in-flight cap that can only zero the pacing rate.
    idle_tick_safe = True

    def __init__(self) -> None:
        super().__init__()
        self._history: Deque[float] = deque(maxlen=HISTORY_WINDOWS)
        self._window_start: Optional[float] = None
        self._window_delivered = 0
        self._ramping = True  # double each window until capacity is found
        self._ramp_windows = 0
        self._ramp_misses = 0

    def on_connection_start(self) -> None:
        self.pacing_rate = MIN_RATE * 4
        self.round_mode = "up"
        self.request_burst(10)

    def on_ack(self, sample: AckSample) -> None:
        if self._window_start is None:
            self._window_start = sample.now
        # Close elapsed windows before attributing this ACK's segments.
        while sample.now - self._window_start >= WINDOW:
            self._close_window()
            self._window_start += WINDOW
        self._window_delivered += sample.newly_delivered

    def _close_window(self) -> None:
        host = self.host
        assert host is not None
        rate = self._window_delivered * host.packet_bytes / WINDOW
        self._window_delivered = 0
        self._history.append(rate)
        if self._ramping:
            self._ramp_windows += 1
            if self._ramp_windows == 1:
                return  # first window is polluted by the initial burst
            # Startup: double until deliveries stop keeping up with the
            # sending rate (the link, not this flow, is the limiter).
            # Per-window delivery counts quantise to whole packets, so a
            # single miss may be noise; require two in a row.
            if rate >= 0.75 * self.pacing_rate:
                self._ramp_misses = 0
                self.pacing_rate = max(MIN_RATE, 2.0 * self.pacing_rate)
                return
            self._ramp_misses += 1
            if self._ramp_misses < 2:
                return
            self._ramping = False
            # The ramp's history is dominated by self-limited windows;
            # keep only the most recent (capacity-revealing) samples.
            recent = list(self._history)[-3:]
            self._history.clear()
            self._history.extend(recent)
        self._forecast()

    def _forecast(self) -> None:
        if len(self._history) < 3:
            return
        rates = np.asarray(self._history)
        base = float(np.quantile(rates, QUANTILE))
        # Trend feature: difference of recent-half vs older-half means.
        half = len(rates) // 2
        trend = float(rates[half:].mean() - rates[:half].mean())
        forecast = base + TREND_GAIN * max(0.0, trend)
        self.pacing_rate = max(MIN_RATE, PROBE_GAIN * forecast)

    def on_rto(self) -> None:
        self._history.clear()
        self._ramping = True
        self._ramp_windows = 0
        self._ramp_misses = 0
        self.pacing_rate = MIN_RATE
        self.request_burst(4)

    def on_tick(self, now: float) -> None:
        """Cap in-flight data to bound queue growth during mispredictions."""
        host = self.host
        if host is None or not self._history:
            return
        rtt = host.min_rtt if host.min_rtt != float("inf") else 0.1
        recent = self._history[-1]
        cap = max(20, int((rtt + 0.2) * max(recent, MIN_RATE) / host.packet_bytes))
        if host.inflight >= cap:
            self.pacing_rate = 0.0
