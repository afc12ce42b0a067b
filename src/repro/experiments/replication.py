"""Seeded replication of experiments (the paper's "repeated many times").

Real cellular conditions vary run to run, so the paper repeats each
experiment and reports averages (§5.3).  The simulation analogue is to
re-generate the trace with different seeds and aggregate: the seed plays
the role of "the network on a different day".

:func:`replicate_single_flow` runs one algorithm over N seed-variants of
a trace spec and reduces the outcomes to means with bootstrap confidence
intervals; :func:`compare_algorithms` does it for several algorithms on
the *same* seed set (paired by seed, so comparisons are fair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.runner import CcFactory, FlowResult, run_single_flow
from repro.metrics.compare import MeanCI, bootstrap_mean_ci
from repro.traces.generator import TraceSpec, generate_cellular_trace
from repro.traces.presets import uplink_spec


@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregate of one algorithm across seed replications."""

    name: str
    throughput: MeanCI            # bytes/second
    mean_delay: MeanCI            # seconds
    p95_delay: MeanCI             # seconds
    runs: List[FlowResult]

    @property
    def throughput_kbps(self) -> float:
        return self.throughput.mean / 1000.0


def replicate_single_flow(
    cc_factory: CcFactory,
    trace_spec: TraceSpec,
    seeds: Sequence[int],
    duration: float = 25.0,
    measure_start: float = 4.0,
    name: str = "",
    confidence: float = 0.95,
) -> ReplicatedResult:
    """Run one algorithm over seed-variants of ``trace_spec``."""
    if not seeds:
        raise ValueError("need at least one seed")
    runs: List[FlowResult] = []
    for seed in seeds:
        down_spec = trace_spec.with_seed(seed)
        down = generate_cellular_trace(down_spec)
        up = generate_cellular_trace(uplink_spec(down_spec))
        runs.append(
            run_single_flow(
                cc_factory, down, up,
                duration=duration, measure_start=measure_start,
                name=f"{name or 'flow'}#s{seed}",
            )
        )
    return ReplicatedResult(
        name=name or "flow",
        throughput=bootstrap_mean_ci(
            [r.throughput for r in runs], confidence=confidence
        ),
        mean_delay=bootstrap_mean_ci(
            [r.delay.mean for r in runs if r.delay.count], confidence=confidence
        ),
        p95_delay=bootstrap_mean_ci(
            [r.delay.p95 for r in runs if r.delay.count], confidence=confidence
        ),
        runs=runs,
    )


def compare_algorithms(
    algorithms: Dict[str, CcFactory],
    trace_spec: TraceSpec,
    seeds: Sequence[int],
    duration: float = 25.0,
    measure_start: float = 4.0,
    confidence: float = 0.95,
) -> Dict[str, ReplicatedResult]:
    """Replicate several algorithms over the *same* seed set."""
    return {
        name: replicate_single_flow(
            factory, trace_spec, seeds,
            duration=duration, measure_start=measure_start,
            name=name, confidence=confidence,
        )
        for name, factory in algorithms.items()
    }


def format_comparison(results: Dict[str, ReplicatedResult]) -> List[str]:
    """Rows of a mean±CI comparison table."""
    lines = [
        f"{'Algorithm':10s} {'tput KB/s':>10s} {'±':>6s} "
        f"{'mean ms':>8s} {'±':>6s} {'p95 ms':>8s} {'±':>6s} {'n':>3s}"
    ]
    for name, res in results.items():
        lines.append(
            f"{name:10s} {res.throughput.mean / 1000:10.1f} "
            f"{res.throughput.half_width / 1000:6.1f} "
            f"{res.mean_delay.mean * 1000:8.1f} "
            f"{res.mean_delay.half_width * 1000:6.1f} "
            f"{res.p95_delay.mean * 1000:8.1f} "
            f"{res.p95_delay.half_width * 1000:6.1f} "
            f"{res.throughput.n:3d}"
        )
    return lines
