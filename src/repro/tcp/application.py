"""Application traffic models feeding the TCP sender.

The paper's evaluation uses iperf-style bulk transfers (an infinite
backlog), but its motivation is real-time communication — video
conferencing and gaming — whose sources are rate-limited.  These models
generalise the sender's data supply:

* :class:`BulkApplication` — unlimited backlog (the default, iperf).
* :class:`ConstantBitrateApplication` — an RTC-like source producing
  segments at a fixed rate; the transport is frequently app-limited, so
  estimators must cope with self-limited measurement (exactly the regime
  PropRate's ρ-hold logic handles).
* :class:`OnOffApplication` — bursty request/response-style traffic:
  alternating talk-spurts and silences.

An application answers one question for the sender: *how many segments
have been produced by time t?*  The sender may transmit segment ``i``
once ``produced(t) > i``.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional


def _floor_segments(seconds: float, rate: float, segment_bytes: int) -> int:
    """Exact ``floor(seconds · rate / segment_bytes)``.

    The float product drifts at large ``seconds``: once
    ``seconds * rate`` needs more than 53 bits, rounding can land just
    below an integer boundary and the truncation loses (or gains) a
    segment, so a long-running CBR source's cumulative count diverges
    from the closed form — and can even step backwards between two
    nearby ``now`` values.  Integer arithmetic over the exact binary
    values of the inputs (``as_integer_ratio``) keeps the count
    closed-form and monotone for arbitrarily large ``now``.

    ``seconds`` and ``rate`` may be ``int`` or ``float``; a non-finite
    one raises (``OverflowError`` for an infinity, ``ValueError`` for
    NaN).  A negative quotient truncates toward zero.
    """
    sn, sd = seconds.as_integer_ratio()
    rn, rd = rate.as_integer_ratio()
    num = sn * rn
    den = sd * rd * segment_bytes
    q = num // den
    if q < 0 and q * den != num:
        q += 1
    return q


class Application:
    """Interface: cumulative segment production over time."""

    def produced(self, now: float) -> Optional[int]:
        """Segments produced by ``now``; None means unlimited."""
        raise NotImplementedError

    def total(self) -> Optional[int]:
        """Total segments this application will ever produce, if finite."""
        return None


class BulkApplication(Application):
    """An iperf-style unlimited backlog, optionally size-capped."""

    def __init__(self, total_segments: Optional[int] = None) -> None:
        if total_segments is not None and total_segments < 0:
            raise ValueError("total_segments must be non-negative")
        self._total = total_segments

    def produced(self, now: float) -> Optional[int]:
        return self._total

    def total(self) -> Optional[int]:
        return self._total


class ConstantBitrateApplication(Application):
    """Segments produced at a constant rate from a start time.

    Parameters
    ----------
    rate:
        Application data rate in bytes/second.
    segment_bytes:
        Bytes per produced segment (one TCP segment each).
    start / duration:
        Production window; ``duration=None`` produces forever.
    """

    def __init__(
        self,
        rate: float,
        segment_bytes: int = 1500,
        start: float = 0.0,
        duration: Optional[float] = None,
    ) -> None:
        if rate <= 0 or segment_bytes <= 0:
            raise ValueError("rate and segment_bytes must be positive")
        if duration is not None and duration < 0:
            raise ValueError("duration must be non-negative")
        self.rate = rate
        self.segment_bytes = segment_bytes
        self.start = start
        self.duration = duration

    def produced(self, now: float) -> Optional[int]:
        if now <= self.start:
            return 0
        horizon = now - self.start
        if self.duration is not None:
            horizon = min(horizon, self.duration)
        return _floor_segments(horizon, self.rate, self.segment_bytes)

    def total(self) -> Optional[int]:
        if self.duration is None:
            return None
        return _floor_segments(self.duration, self.rate, self.segment_bytes)


class OnOffApplication(Application):
    """Alternating talk-spurts (CBR at ``rate``) and silences.

    Deterministic periods keep experiments reproducible; the pattern
    starts with an ON period at ``start``.
    """

    def __init__(
        self,
        rate: float,
        on_seconds: float,
        off_seconds: float,
        segment_bytes: int = 1500,
        start: float = 0.0,
    ) -> None:
        if rate <= 0 or segment_bytes <= 0:
            raise ValueError("rate and segment_bytes must be positive")
        if on_seconds <= 0 or off_seconds < 0:
            raise ValueError("on_seconds must be positive, off_seconds >= 0")
        self.rate = rate
        self.on_seconds = on_seconds
        self.off_seconds = off_seconds
        self.segment_bytes = segment_bytes
        self.start = start

    def _on_time_elapsed(self, now: float) -> float:
        """Cumulative ON time in [start, now]."""
        if now <= self.start:
            return 0.0
        elapsed = now - self.start
        period = self.on_seconds + self.off_seconds
        if period <= 0:
            return elapsed
        whole, within = divmod(elapsed, period)
        return whole * self.on_seconds + min(within, self.on_seconds)

    def produced(self, now: float) -> Optional[int]:
        return _floor_segments(
            self._on_time_elapsed(now), self.rate, self.segment_bytes
        )


class TraceApplication(Application):
    """Segments produced at explicit timestamps (e.g. a video encoder's
    frame schedule)."""

    def __init__(self, production_times: Iterable[float]) -> None:
        times = sorted(float(t) for t in production_times)
        if times and times[0] < 0:
            raise ValueError("production times must be non-negative")
        self._times = times

    def produced(self, now: float) -> Optional[int]:
        return bisect.bisect_right(self._times, now)

    def total(self) -> Optional[int]:
        return len(self._times)
