"""Sprout (Winstein et al., NSDI 2013): stochastic forecast control.

Sprout models the cellular link's packet deliveries as a doubly
stochastic process and sends only as many packets as the *5th-percentile*
forecast says can drain within its 100 ms delay target.  The paper uses
Sprout as the flagship forecast-based baseline: very low delay, with a
substantial throughput penalty on volatile links because the
conservative percentile forecasts under-commit.

This implementation keeps Sprout's control structure while simplifying
the inference: delivery counts are binned into 20 ms ticks (Sprout's
tick), a Brownian-motion-with-drift model tracks the delivery rate's
mean and variance, and the window is the conservative (mean − z·σ)
cumulative forecast over the 100 ms horizon.  The full Sprout inference
(a discretised Bayesian filter over rates) refines the same two moments;
the percentile-forecast behaviour — the part that determines the
throughput/delay trade-off — is preserved.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.tcp.congestion.base import AckSample, WindowCongestionControl
from repro.util.windows import Ewma

TICK = 0.020          # Sprout's tick length (seconds)
HORIZON = 0.100       # delay target: five ticks of lookahead
Z_CONSERVATIVE = 1.65  # one-sided 5th percentile
PROBE_PACKETS = 8.0    # headroom so a self-limited flow can rediscover
                       # capacity (the forecast only sees what it sends)
RATE_ALPHA = 0.20     # EWMA gain for the delivery-rate mean
VAR_ALPHA = 0.20      # EWMA gain for the rate variance


class Sprout(WindowCongestionControl):
    """Conservative stochastic-forecast window control."""

    name = "Sprout"
    sending_regulation = "Window-based"
    congestion_trigger = "Rate Forecast"

    MIN_CWND = 2.0

    def __init__(self) -> None:
        super().__init__()
        self._tick_start: Optional[float] = None
        self._tick_delivered = 0
        self._rate = Ewma(RATE_ALPHA)      # packets per second
        self._var = Ewma(VAR_ALPHA)        # (packets/second)^2

    def on_ack(self, sample: AckSample) -> None:
        if self._tick_start is None:
            self._tick_start = sample.now
        # Close elapsed ticks before attributing this ACK's segments:
        # packets arriving now belong to the tick containing `now`.
        while sample.now - self._tick_start >= TICK:
            self._close_tick()
            self._tick_start += TICK
        self._tick_delivered += sample.newly_delivered
        self._update_window()

    def _close_tick(self) -> None:
        rate_sample = self._tick_delivered / TICK
        self._tick_delivered = 0
        mean = self._rate.value
        if mean is not None:
            deviation = rate_sample - mean
            self._var.update(deviation * deviation)
        self._rate.update(rate_sample)

    def _update_window(self) -> None:
        mean = self._rate.value
        if mean is None:
            return
        sigma = math.sqrt(self._var.value) if self._var.value else 0.0
        conservative = max(0.0, mean - Z_CONSERVATIVE * sigma)
        # Packets deliverable within the 100 ms target at the 5th pct,
        # plus a small probe allowance: when the flow itself is the
        # limiter, measured deliveries equal the window, so without
        # headroom the forecast would ratchet downward monotonically.
        self.cwnd = max(self.MIN_CWND, conservative * HORIZON + PROBE_PACKETS)

    def on_congestion(self, sample: AckSample) -> None:
        # Sprout reacts to losses only through the forecast; keep a mild
        # multiplicative response so buffer-overflow regimes back off.
        self.ssthresh = max(self.MIN_CWND, self.cwnd * 0.5)
        self.cwnd = self.ssthresh

    def on_rto(self) -> None:
        self.cwnd = self.MIN_CWND
        self.ssthresh = max(self.MIN_CWND, self.cwnd)
