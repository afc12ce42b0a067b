"""Target-buffer-delay sweeps (Figures 9 and 10).

PropRate's distinguishing property is a *tunable* operating point: one
parameter, the target average buffer delay t̄_buff, moves the flow along
a smooth throughput/latency frontier.  :func:`sweep_frontier` reproduces
the Figure-10 grid; :func:`nfl_convergence` reproduces Figure 9's
target-vs-achieved comparison with and without the negative-feedback
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.experiments.options import RunOptions
from repro.experiments.parallel import (
    RunSpec,
    collect,
    iter_batch,
    proprate_spec,
    run_batch,
)
from repro.experiments.runner import FlowResult
from repro.traces.trace import Trace


def paper_frontier_targets() -> List[float]:
    """The Figure-10 grid: 12–30 ms step 1 ms, then 30–120 ms step 4 ms."""
    fine = [t / 1000.0 for t in range(12, 30)]
    coarse = [t / 1000.0 for t in range(30, 121, 4)]
    return fine + coarse


@dataclass(frozen=True)
class FrontierPoint:
    """One sweep point: the configuration and its measured outcome."""

    target_tbuff: float
    result: FlowResult

    @property
    def throughput_kbps(self) -> float:
        return self.result.throughput_kbps

    @property
    def mean_delay_ms(self) -> float:
        return self.result.delay.mean_ms

    @property
    def p95_delay_ms(self) -> float:
        return self.result.delay.p95_ms


def _frontier_specs(
    downlink_trace: Trace,
    uplink_trace: Optional[Trace],
    grid: Sequence[float],
    duration: float,
    measure_start: float,
    enable_feedback: bool,
) -> List[RunSpec]:
    return [
        RunSpec(
            cc=proprate_spec(target, enable_feedback=enable_feedback),
            downlink=downlink_trace,
            uplink=uplink_trace,
            duration=duration,
            measure_start=measure_start,
            name=f"PR({target * 1000:.0f}ms)",
        )
        for target in grid
    ]


def sweep_frontier(
    downlink_trace: Trace,
    uplink_trace: Optional[Trace] = None,
    targets: Optional[Sequence[float]] = None,
    duration: float = 30.0,
    measure_start: float = 4.0,
    enable_feedback: bool = True,
    n_jobs: int = 1,
    run_options: Optional[RunOptions] = None,
) -> List[FrontierPoint]:
    """Run PropRate across a grid of t̄_buff targets (Figure 10).

    ``n_jobs`` fans the grid out over worker processes (the points are
    independent simulations); results are identical to the serial run
    and returned in target order.  ``run_options`` goes to
    :func:`repro.experiments.parallel.run_batch` as is; use
    :func:`iter_frontier` to consume points as they complete instead of
    waiting for the whole grid.
    """
    grid = list(targets) if targets is not None else paper_frontier_targets()
    specs = _frontier_specs(
        downlink_trace, uplink_trace, grid, duration, measure_start,
        enable_feedback,
    )
    results = collect(
        run_batch(specs, n_jobs=n_jobs, run_options=run_options)
    )
    return [
        FrontierPoint(target_tbuff=target, result=result)
        for target, result in zip(grid, results)
    ]


def iter_frontier(
    downlink_trace: Trace,
    uplink_trace: Optional[Trace] = None,
    targets: Optional[Sequence[float]] = None,
    duration: float = 30.0,
    measure_start: float = 4.0,
    enable_feedback: bool = True,
    n_jobs: int = 1,
    run_options: Optional[RunOptions] = None,
) -> Iterator[FrontierPoint]:
    """Stream Figure-10 points **in completion order**.

    The streaming face of :func:`sweep_frontier`: each
    :class:`FrontierPoint` is yielded the moment its simulation lands,
    so a consumer can plot/persist the frontier incrementally while the
    long deep-buffer targets are still running.  A failed point (after
    any retries ``run_options`` allows) raises ``RuntimeError`` with the
    worker traceback.  Point values are bit-identical to the serial sweep —
    only the arrival order differs.
    """
    grid = list(targets) if targets is not None else paper_frontier_targets()
    specs = _frontier_specs(
        downlink_trace, uplink_trace, grid, duration, measure_start,
        enable_feedback,
    )
    for outcome in iter_batch(specs, n_jobs=n_jobs, run_options=run_options):
        if not outcome.ok:
            raise RuntimeError(
                f"frontier target {grid[outcome.index] * 1000:.0f}ms "
                f"failed:\n{outcome.error}"
            )
        yield FrontierPoint(
            target_tbuff=grid[outcome.index], result=outcome.result
        )


@dataclass(frozen=True)
class ConvergencePoint:
    """One Figure-9 point: target vs achieved average buffer delay."""

    target_tbuff: float
    achieved_tbuff: float
    with_feedback: bool

    @property
    def error(self) -> float:
        return self.achieved_tbuff - self.target_tbuff


def nfl_convergence(
    downlink_trace: Trace,
    uplink_trace: Optional[Trace] = None,
    targets: Optional[Sequence[float]] = None,
    duration: float = 30.0,
    measure_start: float = 4.0,
    propagation_delay: float = 0.020,
    n_jobs: int = 1,
    run_options: Optional[RunOptions] = None,
) -> List[ConvergencePoint]:
    """Figure 9: achieved vs target buffer delay, with and without NFL.

    The achieved buffer delay is the externally measured mean one-way
    delay minus the propagation delay — ground truth, not the sender's
    own estimate.  ``n_jobs`` parallelizes the (feedback × target) grid;
    ``run_options`` goes to :func:`repro.experiments.parallel.run_batch`
    as is.
    """
    if targets is None:
        targets = [t / 1000.0 for t in range(20, 121, 20)]
    grid = [
        (with_nfl, target)
        for with_nfl in (True, False)
        for target in targets
    ]
    specs = [
        RunSpec(
            cc=proprate_spec(target, enable_feedback=with_nfl),
            downlink=downlink_trace,
            uplink=uplink_trace,
            duration=duration,
            measure_start=measure_start,
        )
        for with_nfl, target in grid
    ]
    results = collect(
        run_batch(specs, n_jobs=n_jobs, run_options=run_options)
    )
    points = []
    for (with_nfl, target), result in zip(grid, results):
        achieved = max(0.0, result.delay.mean - propagation_delay)
        points.append(
            ConvergencePoint(
                target_tbuff=target,
                achieved_tbuff=achieved,
                with_feedback=with_nfl,
            )
        )
    return points
