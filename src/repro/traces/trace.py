"""Packet-delivery trace container.

A :class:`Trace` is the Cellsim input format: a sorted sequence of
*delivery opportunities*, each allowing the link to transmit up to one
MTU (1500 bytes) at that instant.  Links replay the trace, looping it when
an experiment outlasts the capture.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

#: Bytes a single delivery opportunity can carry (Cellsim convention).
OPPORTUNITY_BYTES = 1500


class CompiledSchedule:
    """A trace's opportunity schedule precompiled for the link hot path.

    Built once per :class:`Trace` (:meth:`Trace.compiled`) and shared by
    every link and every run that replays the trace.

    ``times`` is the float64 array, searched for vectorized
    fast-forwards (:meth:`first_at_or_after`).  ``times_view`` is a
    zero-copy ``memoryview`` of the same buffer for the links' scalar
    reads: indexing it yields a plain Python float, where numpy scalar
    extraction is slower and yields ``np.float64``.  A list copy would
    index faster but costs 32 bytes per opportunity beside the array's
    eight (DESIGN.md, "Run lifetime and memory").  A ``memoryview``
    does not pickle, so :class:`Trace` pickles without its schedule.
    """

    __slots__ = ("times", "times_view", "size", "period")

    def __init__(self, times: np.ndarray, period: float) -> None:
        self.times = times
        self.times_view = memoryview(times)
        self.size = int(times.size)
        self.period = float(period)

    def first_at_or_after(self, local: float, lo: int = 0) -> int:
        """Index of the first opportunity at/after ``local`` (one cycle).

        A vectorized ``searchsorted`` over the remaining cycle — the
        fast-forward links use after an idle gap, replacing the
        incremental Python-list walk.
        """
        if lo == 0:
            return int(np.searchsorted(self.times, local, side="left"))
        return lo + int(np.searchsorted(self.times[lo:], local, side="left"))


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace's windowed throughput.

    ``mean`` and ``std`` are in bytes/second, computed over fixed windows
    (the paper's Table 2 uses 100 ms windows).  ``outage_fraction`` is the
    fraction of windows with zero delivery opportunities.
    """

    mean: float
    std: float
    window: float
    outage_fraction: float
    duration: float

    @property
    def mean_kbps(self) -> float:
        """Mean throughput in the paper's units (KB/s, K = 1000)."""
        return self.mean / 1000.0

    @property
    def std_kbps(self) -> float:
        return self.std / 1000.0


class Trace:
    """A replayable packet-delivery-opportunity trace.

    Parameters
    ----------
    opportunity_times:
        Sorted, non-negative times (seconds) of delivery opportunities.
    duration:
        Length of the capture in seconds.  Must cover the last
        opportunity; the trace repeats with this period when looped.
    name:
        Human-readable label used in reports.
    """

    def __init__(
        self,
        opportunity_times: Sequence[float],
        duration: float,
        name: str = "trace",
    ) -> None:
        times = np.asarray(opportunity_times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("opportunity_times must be one-dimensional")
        # Before the order check: any comparison with NaN is false, so
        # a NaN would pass it.
        if not np.isfinite(times).all():
            raise ValueError("opportunity_times must be finite")
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("opportunity_times must be sorted")
        if times.size and times[0] < 0:
            raise ValueError("opportunity_times must be non-negative")
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"duration must be positive and finite, "
                             f"got {duration}")
        if times.size and times[-1] >= duration:
            raise ValueError(
                f"last opportunity {times[-1]:.3f}s not within duration "
                f"{duration:.3f}s"
            )
        self.opportunity_times = times
        self.duration = float(duration)
        self.name = name
        #: Generation recipe, when this trace came from a seeded
        #: :class:`~repro.traces.generator.TraceSpec` (set by the
        #: generator).  Lets :mod:`repro.traces.cache` reference the
        #: trace by its compact spec instead of its opportunity array.
        self.source_spec = None
        self._compiled: Optional[CompiledSchedule] = None

    def __getstate__(self) -> dict:
        # The compiled schedule holds a memoryview, which cannot be
        # pickled; it is rebuilt on first use.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def compiled(self) -> CompiledSchedule:
        """The cached :class:`CompiledSchedule` for this trace.

        Shared by every link replaying the trace; the opportunity array
        is immutable by convention, so one compilation serves all runs.
        """
        schedule = self._compiled
        if schedule is None:
            schedule = CompiledSchedule(self.opportunity_times, self.duration)
            self._compiled = schedule
        return schedule

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.opportunity_times.size)

    @property
    def total_bytes(self) -> int:
        return len(self) * OPPORTUNITY_BYTES

    def mean_throughput(self) -> float:
        """Average capacity over the whole trace, bytes/second."""
        return self.total_bytes / self.duration

    def throughput_series(self, window: float = 0.1) -> Tuple[np.ndarray, np.ndarray]:
        """Windowed throughput: (window start times, bytes/second)."""
        if window <= 0:
            raise ValueError("window must be positive")
        n_windows = max(1, int(np.ceil(self.duration / window)))
        edges = np.arange(n_windows + 1) * window
        counts, _ = np.histogram(self.opportunity_times, bins=edges)
        return edges[:-1], counts * OPPORTUNITY_BYTES / window

    def capacity_bytes(self, start: float, end: float, loop: bool = True) -> int:
        """Bytes of delivery opportunities in absolute time ``[start, end)``.

        With ``loop`` the trace replays cyclically (as links do), so the
        window may span multiple trace periods.
        """
        if end <= start:
            raise ValueError("end must exceed start")
        if start < 0:
            raise ValueError("start must be non-negative")
        times = self.opportunity_times
        if not loop:
            count = int(
                np.searchsorted(times, end, side="left")
                - np.searchsorted(times, start, side="left")
            )
            return count * OPPORTUNITY_BYTES

        def cumulative(t: float) -> int:
            """Opportunities in [0, t) with cyclic replay."""
            whole, frac = divmod(t, self.duration)
            return int(whole) * times.size + int(
                np.searchsorted(times, frac, side="left")
            )

        return (cumulative(end) - cumulative(start)) * OPPORTUNITY_BYTES

    def stats(self, window: float = 0.1) -> TraceStats:
        """Table-2-style statistics over ``window``-second bins."""
        _, series = self.throughput_series(window)
        outage = float(np.mean(series == 0.0)) if series.size else 1.0
        return TraceStats(
            mean=float(series.mean()) if series.size else 0.0,
            std=float(series.std()) if series.size else 0.0,
            window=window,
            outage_fraction=outage,
            duration=self.duration,
        )

    # ------------------------------------------------------------------
    # Persistence (Cellsim-compatible: one opportunity per line, in ms)
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace in Cellsim's text format (milliseconds/line)."""
        with open(path, "w", encoding="ascii") as fh:
            self.write(fh)

    def write(self, fh: io.TextIOBase) -> None:
        for t in self.opportunity_times:
            fh.write(f"{t * 1000.0:.3f}\n")

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        duration: float = 0.0,
        name: str = "",
    ) -> "Trace":
        """Read a Cellsim-format trace.

        If ``duration`` is zero, it is inferred as the last opportunity
        time rounded up to the next whole second.  A line that is not a
        finite number raises :class:`ValueError` naming the file and line.
        """
        times_ms = []
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    value = float(line)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: opportunity time "
                                     f"{line!r} is not a finite number")
                times_ms.append(value)
        times = np.asarray(times_ms) / 1000.0
        if duration <= 0:
            duration = float(np.ceil(times[-1])) if times.size else 1.0
            if times.size and duration <= times[-1]:
                duration = float(times[-1]) + 1e-6
        return cls(times, duration, name=name or str(path))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float, name: str = "") -> "Trace":
        """A trace with ``factor``× the capacity (thinning/replicating)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        times = self.opportunity_times
        if factor == 1.0:
            new_times = times.copy()
        elif factor < 1.0:
            keep = int(round(times.size * factor))
            idx = np.linspace(0, times.size - 1, keep).astype(int) if keep else []
            new_times = times[idx]
        else:
            whole = int(factor)
            parts = [times] * whole
            frac = factor - whole
            if frac > 0:
                keep = int(round(times.size * frac))
                idx = np.linspace(0, times.size - 1, keep).astype(int) if keep else []
                parts.append(times[idx])
            new_times = np.sort(np.concatenate(parts)) if parts else times[:0]
        return Trace(new_times, self.duration, name=name or f"{self.name}x{factor:g}")

    def slice(self, start: float, end: float, name: str = "") -> "Trace":
        """Extract the sub-trace covering ``[start, end)``, rebased to 0."""
        if not 0 <= start < end <= self.duration:
            raise ValueError("invalid slice bounds")
        times = self.opportunity_times
        mask = (times >= start) & (times < end)
        return Trace(times[mask] - start, end - start, name=name or f"{self.name}[{start:g}:{end:g}]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Trace {self.name!r}: {len(self)} opportunities over "
            f"{self.duration:.1f}s, {self.mean_throughput() / 1000:.1f} KB/s>"
        )
