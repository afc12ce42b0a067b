"""Small shared utilities: tagged interval runs, sliding windows, EWMA
filters."""

from repro.util.windows import Ewma, SlidingWindowMin, WindowedMax

__all__ = ["Ewma", "SlidingWindowMin", "WindowedMax"]
