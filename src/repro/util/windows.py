"""Time-windowed filters used by the estimators.

* :class:`Ewma` — plain exponentially weighted moving average (PropRate's
  receive-rate smoothing and the NFL's ``t_actual``, paper Eq. 9).
* :class:`SlidingWindowMin` — minimum over a trailing time window with a
  monotonic deque (the ``RD_min`` baseline of the buffer-delay estimator,
  paper Figure 6(a), and BBR's min-RTT filter).
* :class:`WindowedMax` — the mirror-image maximum (BBR's bottleneck-
  bandwidth filter).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class Ewma:
    """Exponentially weighted moving average with gain ``alpha``.

    ``update`` returns the new average.  Before any sample, ``value`` is
    None; the first sample initialises the average directly.
    """

    def __init__(self, alpha: float) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)
        return self.value

    def reset(self) -> None:
        self.value = None


class _WindowedExtremum:
    """Extremum over samples within a trailing time window."""

    def __init__(self, window: float, keep_smaller: bool) -> None:
        if not window > 0:  # NaN too: a NaN window would never evict
            raise ValueError("window must be positive")
        self.window = window
        self._keep_smaller = keep_smaller
        self._samples: Deque[Tuple[float, float]] = deque()

    def _dominates(self, new: float, old: float) -> bool:
        return new <= old if self._keep_smaller else new >= old

    def update(self, time: float, value: float) -> float:
        """Insert a sample and return the current windowed extremum."""
        while self._samples and self._dominates(value, self._samples[-1][1]):
            self._samples.pop()
        self._samples.append((time, value))
        self._expire(time)
        return self._samples[0][1]

    def current(self, time: Optional[float] = None) -> Optional[float]:
        """The extremum, expiring stale samples if ``time`` is given."""
        if time is not None:
            self._expire(time)
        return self._samples[0][1] if self._samples else None

    def _expire(self, time: float) -> None:
        while self._samples and self._samples[0][0] < time - self.window:
            self._samples.popleft()

    def reset(self) -> None:
        self._samples.clear()

    def __len__(self) -> int:
        return len(self._samples)


class SlidingWindowMin(_WindowedExtremum):
    """Minimum of samples seen within the last ``window`` seconds."""

    def __init__(self, window: float) -> None:
        super().__init__(window, keep_smaller=True)


class WindowedMax(_WindowedExtremum):
    """Maximum of samples seen within the last ``window`` seconds."""

    def __init__(self, window: float) -> None:
        super().__init__(window, keep_smaller=False)
