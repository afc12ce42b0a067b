"""Summary statistics for experiment results."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


def finite_or_none(value: Optional[float]) -> Optional[float]:
    """A float fit for a deterministic JSON artifact (NaN/inf → None)."""
    if value is None or not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class DelaySummary:
    """Mean / median / tail statistics of a delay sample (seconds)."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    maximum: float

    @property
    def mean_ms(self) -> float:
        return self.mean * 1000.0

    @property
    def p95_ms(self) -> float:
        return self.p95 * 1000.0


def delay_summary(delays: Sequence[float]) -> DelaySummary:
    """Reduce a delay sample to the figures' summary statistics.

    An empty sample yields NaNs (a flow that delivered nothing), which
    report tables render as missing rather than crashing the sweep.
    """
    arr = np.asarray(delays, dtype=float)
    if arr.size == 0:
        nan = float("nan")
        return DelaySummary(0, nan, nan, nan, nan, nan)
    return DelaySummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        median=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
        maximum=float(arr.max()),
    )


def jain_fairness(allocations: Sequence[float]) -> float:
    """Jain's fairness index: 1 is perfectly fair, 1/n maximally unfair."""
    arr = np.asarray(allocations, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one allocation")
    denom = arr.size * float((arr ** 2).sum())
    if denom == 0:
        return 1.0
    return float(arr.sum()) ** 2 / denom
