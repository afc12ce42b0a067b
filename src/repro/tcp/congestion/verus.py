"""Verus (Zaki et al., SIGCOMM 2015): delay-profile window control.

Verus learns a *delay profile* — the empirical relationship between the
congestion window and the resulting end-to-end delay — and walks a
target delay up while conditions are calm, cutting it multiplicatively
when delay spikes or losses occur.  The window is then read off the
profile for the chosen target delay.

This implementation keeps that structure with a first-order profile: the
window that produces a one-way queueing delay ``D`` on a link delivering
``λ`` packets/s with base RTT ``R`` is ``W ≈ λ·(R + D)``.  The epoch
logic (delay-trend-driven increment/decrement of the target) follows the
published design; the learned spline is replaced by this closed form,
which the full profile converges to on a stable link.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp.congestion.base import AckSample, WindowCongestionControl
from repro.util.windows import Ewma, SlidingWindowMin

DELTA_INCREASE = 0.005   # seconds added to the target delay per calm epoch
DECREASE_FACTOR = 0.90   # multiplicative target decrease on rising delay
LOSS_FACTOR = 0.50       # target cut on loss
TARGET_MIN = 0.005
TARGET_MAX = 0.250
EPOCH_MIN = 0.005        # Verus epochs: max(srtt/2, 5 ms)


class Verus(WindowCongestionControl):
    """Delay-profile-driven window control."""

    name = "Verus"
    sending_regulation = "Window-based"
    congestion_trigger = "Utility Function"

    MIN_CWND = 2.0

    def __init__(self) -> None:
        super().__init__()
        self._target_delay = 0.050
        self._owd_base = SlidingWindowMin(30.0)
        self._owd_ewma = Ewma(0.20)
        self._rate_ewma = Ewma(0.125)     # packets per second
        self._last_ack_time: Optional[float] = None
        self._epoch_start = 0.0
        self._epoch_owd: Optional[float] = None
        self._prev_epoch_owd: Optional[float] = None

    def on_ack(self, sample: AckSample) -> None:
        now = sample.now
        if sample.one_way_delay is not None:
            self._owd_base.update(now, sample.one_way_delay)
            self._owd_ewma.update(sample.one_way_delay)
        delta = sample.newly_delivered
        if self._last_ack_time is not None and delta:
            dt = now - self._last_ack_time
            if dt > 0:
                self._rate_ewma.update(delta / dt)
        if delta:
            self._last_ack_time = now

        host = self.host
        srtt = host.srtt if host and host.srtt else 0.1
        epoch = max(EPOCH_MIN, srtt / 2.0)
        if now - self._epoch_start >= epoch:
            self._epoch_start = now
            self._epoch_step()

    def _epoch_step(self) -> None:
        owd = self._owd_ewma.value
        if owd is None:
            return
        self._prev_epoch_owd, self._epoch_owd = self._epoch_owd, owd
        if self._prev_epoch_owd is not None and owd > self._prev_epoch_owd:
            self._target_delay = max(TARGET_MIN, self._target_delay * DECREASE_FACTOR)
        else:
            self._target_delay = min(TARGET_MAX, self._target_delay + DELTA_INCREASE)
        self._apply_profile()

    def _apply_profile(self) -> None:
        rate = self._rate_ewma.value
        host = self.host
        if rate is None or host is None:
            return
        base_rtt = host.min_rtt if host.min_rtt != float("inf") else 0.1
        window = rate * (base_rtt + self._target_delay)
        self.cwnd = max(self.MIN_CWND, window)

    def on_congestion(self, sample: AckSample) -> None:
        self._target_delay = max(TARGET_MIN, self._target_delay * LOSS_FACTOR)
        self.ssthresh = max(self.MIN_CWND, self.cwnd * 0.5)
        self._apply_profile()

    def on_rto(self) -> None:
        self._target_delay = TARGET_MIN
        self.ssthresh = max(self.MIN_CWND, self.cwnd * 0.5)
        self.cwnd = self.LOSS_WINDOW
