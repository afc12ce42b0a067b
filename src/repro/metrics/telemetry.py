"""Runtime telemetry: periodic sampling of simulation state.

The fluid model predicts the buffer-delay sawtooth analytically; the
packet-level simulator should reproduce it.  :class:`QueueSampler`
records a bottleneck queue's occupancy over time so the waveform can be
extracted from a real run and compared against the Figure-1/2 geometry
(see ``repro reproduce W1``, :mod:`repro.reproduce.paper`).

:func:`sawtooth_summary` reduces a sampled waveform to the quantities
the model predicts: peak, trough, average and period.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sized, Tuple

import numpy as np

from repro.obs import QUEUE_SAMPLE, Tracer, current_tracer
from repro.sim.engine import PeriodicTimer, Simulator


class QueueSampler:
    """Sample a queue's length every ``interval`` seconds.

    ``queue`` is anything with ``__len__`` (both queue classes and links
    via their ``queue`` attribute).  ``service_rate`` converts packets to
    buffer delay seconds when summarising.

    When telemetry is active (an explicit ``tracer`` or the ambient one)
    samples are also written as ``queue.sample`` events tagged with
    ``name``, feeding the ``repro trace`` sawtooth reconstruction.  A
    sampled tracer thins them at this source: every ``stride``-th tick
    of this queue is written (``KindBudget.stride``), the others count
    as dropped.  ``times``/``lengths`` keep every tick either way.
    """

    def __init__(
        self,
        sim: Simulator,
        queue: Sized,
        interval: float = 0.005,
        start: float = 0.0,
        name: str = "queue",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.queue = queue
        self.interval = interval
        self.name = name
        self.times: List[float] = []
        self.lengths: List[int] = []
        self._sim = sim
        self._timer: Optional[PeriodicTimer] = None
        self._tracer = tracer if tracer is not None else current_tracer()
        self._budget = (self._tracer.budget(QUEUE_SAMPLE)
                        if self._tracer is not None else None)
        self._stride = (self._budget.stride(interval)
                        if self._budget is not None else 1)
        self._skip = 0  # ticks to drop before the next written one
        # Samples dominate a trace's record count (one every 10 ms per
        # link vs a handful of CC events per RTT), so they bypass the
        # generic emit path: the invariant parts of the line are
        # pre-encoded and only (t, len) are spliced in.  repr() of a
        # finite float is valid JSON.
        self._fmt = '{"t":%%r,"kind":%s,"link":%s,"len":%%d}' % (
            json.dumps(QUEUE_SAMPLE), json.dumps(name),
        )
        sim.schedule_at(start, self._start)

    def _start(self) -> None:
        self._timer = PeriodicTimer(
            self._sim, self.interval, self._sample, start_delay=0.0
        )

    def _sample(self) -> None:
        now = self._sim.now
        n = len(self.queue)
        self.times.append(now)
        self.lengths.append(n)
        tr = self._tracer
        if tr is None:
            return
        budget = self._budget
        if budget is not None:
            if self._skip:
                self._skip -= 1
                budget.dropped += 1
                return
            self._skip = self._stride - 1
            if not budget.keep():
                return
        tr.sink.write_line(self._fmt % (now, n))
        tr.events += 1

    def stop(self) -> None:
        # The timer's callback is a bound method of this sampler; drop
        # the timer so the pair does not outlive the run as a loop.
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.lengths, dtype=float)

    def buffer_delays(self, service_rate: float,
                      packet_bytes: int = 1500) -> np.ndarray:
        """Queue occupancy converted to buffer delay (seconds)."""
        _, lengths = self.as_arrays()
        return lengths * packet_bytes / service_rate


@dataclass(frozen=True)
class SawtoothSummary:
    """Waveform geometry extracted from a sampled buffer-delay series."""

    dmax: float                  # mean of the peaks
    dmin: float                  # mean of the troughs
    average: float
    period: float                # mean peak-to-peak spacing
    n_cycles: int
    empty_fraction: float


def sawtooth_summary(
    times: np.ndarray,
    delays: np.ndarray,
    discard: float = 0.25,
    smooth_window: int = 5,
) -> SawtoothSummary:
    """Extract (D_max, D_min, average, period) from a waveform.

    The first ``discard`` fraction is treated as transient.  The series
    is lightly box-smoothed before peak detection so packet-level
    granularity does not spray spurious extrema.
    """
    if times.size != delays.size or times.size < 10:
        raise ValueError("need matching series with at least 10 samples")
    start = int(times.size * discard)
    t = times[start:]
    d = delays[start:]
    if smooth_window > 1:
        kernel = np.ones(smooth_window) / smooth_window
        d_smooth = np.convolve(d, kernel, mode="same")
    else:
        d_smooth = d

    interior = d_smooth[1:-1]
    peak_mask = (interior >= d_smooth[:-2]) & (interior > d_smooth[2:])
    trough_mask = (interior <= d_smooth[:-2]) & (interior < d_smooth[2:])
    # Keep only prominent extrema: above/below the midline.
    midline = float(d_smooth.mean())
    peak_idx = np.where(peak_mask & (interior > midline))[0] + 1
    trough_idx = np.where(trough_mask & (interior < midline))[0] + 1

    peaks = d[peak_idx] if peak_idx.size else np.asarray([d.max()])
    troughs = d[trough_idx] if trough_idx.size else np.asarray([d.min()])
    if peak_idx.size >= 2:
        period = float(np.diff(t[peak_idx]).mean())
        n_cycles = int(peak_idx.size)
    else:
        period = float("nan")
        n_cycles = int(peak_idx.size)
    return SawtoothSummary(
        dmax=float(peaks.mean()),
        dmin=float(troughs.mean()),
        average=float(d.mean()),
        period=period,
        n_cycles=n_cycles,
        empty_fraction=float(np.mean(d <= 1e-9)),
    )
