"""Trace analysis beyond Table-2 moments.

Table 2 characterises traces only by mean and standard deviation; the
congestion-control dynamics, however, react to *temporal* structure:
how fast capacity wanders (coherence), how long outages last, how often
the channel visits deep fades.  These tools quantify that structure so
the synthetic traces can be validated against what they claim to model
(see ``tests/test_trace_analysis.py``) and so users can characterise
their own captures before replaying them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.traces.trace import Trace


def rate_series(trace: Trace, window: float = 0.1) -> Tuple[np.ndarray, np.ndarray]:
    """Windowed throughput series (alias of the Trace method, for
    symmetry with the other analysis functions)."""
    return trace.throughput_series(window)


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalised autocorrelation of a series for lags 0..max_lag."""
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise ValueError("series too short")
    x = x - x.mean()
    denom = float((x * x).sum())
    if denom == 0:
        return np.ones(min(max_lag, x.size - 1) + 1)
    lags = min(max_lag, x.size - 1)
    return np.asarray(
        [float((x[: x.size - k] * x[k:]).sum()) / denom for k in range(lags + 1)]
    )


def coherence_time(trace: Trace, window: float = 0.1) -> float:
    """Time for the rate autocorrelation to fall below 1/e.

    This is the quantity the generator's ``coherence_time`` parameter
    controls; measuring it closes the loop on the synthesis model.
    """
    _, series = trace.throughput_series(window)
    if series.size < 3:
        raise ValueError("trace too short for coherence estimation")
    acf = autocorrelation(series, max_lag=series.size - 1)
    below = np.where(acf < 1.0 / np.e)[0]
    if below.size == 0:
        return float(series.size * window)
    return float(below[0] * window)


@dataclass(frozen=True)
class OutageStats:
    """Run-length statistics of zero-capacity windows."""

    count: int
    total_time: float
    mean_duration: float
    max_duration: float
    fraction: float


def outage_runs(trace: Trace, window: float = 0.1) -> List[Tuple[float, float]]:
    """(start, duration) of each maximal zero-capacity run."""
    starts, series = trace.throughput_series(window)
    runs: List[Tuple[float, float]] = []
    run_start = None
    for t, value in zip(starts, series):
        if value == 0.0 and run_start is None:
            run_start = t
        elif value > 0.0 and run_start is not None:
            runs.append((run_start, t - run_start))
            run_start = None
    if run_start is not None:
        runs.append((run_start, trace.duration - run_start))
    return runs


def outage_stats(trace: Trace, window: float = 0.1) -> OutageStats:
    """Summarise outage run-lengths."""
    runs = outage_runs(trace, window)
    if not runs:
        return OutageStats(0, 0.0, 0.0, 0.0, 0.0)
    durations = np.asarray([d for _, d in runs])
    return OutageStats(
        count=len(runs),
        total_time=float(durations.sum()),
        mean_duration=float(durations.mean()),
        max_duration=float(durations.max()),
        fraction=float(durations.sum() / trace.duration),
    )


def rate_percentiles(
    trace: Trace, percentiles: Sequence[float] = (5, 25, 50, 75, 95),
    window: float = 0.1,
) -> dict:
    """Windowed-throughput distribution percentiles (bytes/second)."""
    _, series = trace.throughput_series(window)
    return {
        p: float(np.percentile(series, p)) for p in percentiles
    }


def describe(trace: Trace, window: float = 0.1) -> str:
    """A one-paragraph textual characterisation of a trace."""
    stats = trace.stats(window)
    outages = outage_stats(trace, window)
    try:
        coherence = coherence_time(trace, window)
    except ValueError:
        coherence = float("nan")
    pct = rate_percentiles(trace, window=window)
    return (
        f"{trace.name}: {trace.duration:.0f}s, mean {stats.mean_kbps:.1f} KB/s "
        f"(sd {stats.std_kbps:.1f}), coherence ~{coherence:.2f}s, "
        f"p5/p50/p95 = {pct[5] / 1000:.0f}/{pct[50] / 1000:.0f}/"
        f"{pct[95] / 1000:.0f} KB/s, "
        f"outages: {outages.count} runs, {outages.fraction:.1%} of time "
        f"(max {outages.max_duration:.1f}s)"
    )
