"""Experiment registry: paper artifact → reproduction target.

A machine-readable version of the DESIGN.md experiment index: each
entry maps a table or figure of the paper to the modules that implement
its pieces and the benchmark file that regenerates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    id: str
    artifact: str
    description: str
    modules: Tuple[str, ...]
    bench: str


_EXPERIMENTS = [
    Experiment(
        id="T2",
        artifact="Table 2",
        description="Trace statistics: mean and std of 100 ms throughput "
        "for the six ISP traces",
        modules=("repro.traces.generator", "repro.traces.presets"),
        bench="benchmarks/bench_table2_traces.py",
    ),
    Experiment(
        id="T3",
        artifact="Table 3",
        description="Algorithm taxonomy: sending regulation and congestion "
        "trigger of every evaluated algorithm",
        modules=("repro.tcp.congestion",),
        bench="benchmarks/bench_table3_taxonomy.py",
    ),
    Experiment(
        id="T4",
        artifact="Table 4",
        description="Control-computation overhead per algorithm "
        "(CPU-utilisation substitute): the profiler's cc.control phase",
        modules=("repro.obs.prof", "repro.tcp.sender",
                 "repro.experiments.runner"),
        bench="benchmarks/bench_table4_cpu.py",
    ),
    Experiment(
        id="F1-3",
        artifact="Figures 1-3",
        description="Sawtooth waveforms of the fluid model in both regimes "
        "and across threshold placements",
        modules=("repro.core.model",),
        bench="benchmarks/bench_fig1_3_waveforms.py",
    ),
    Experiment(
        id="F7",
        artifact="Figure 7",
        description="Throughput vs mean/95th-pct one-way delay for all "
        "algorithms on stationary and mobile ISP traces",
        modules=("repro.experiments.runner", "repro.experiments.algorithms"),
        bench="benchmarks/bench_fig7_shootout.py",
    ),
    Experiment(
        id="F8",
        artifact="Figure 8",
        description="The same shootout on a Sprint-like trace with 54% "
        "outage time",
        modules=("repro.traces.presets",),
        bench="benchmarks/bench_fig8_sprint.py",
    ),
    Experiment(
        id="F9",
        artifact="Figure 9",
        description="Negative-feedback-loop effectiveness: target vs "
        "achieved buffer delay, with and without NFL",
        modules=("repro.core.feedback", "repro.experiments.frontier"),
        bench="benchmarks/bench_fig9_nfl.py",
    ),
    Experiment(
        id="F10",
        artifact="Figure 10",
        description="PropRate performance frontier over the t̄_buff grid "
        "plus CUBIC/BBR/Sprout/PCC reference points",
        modules=("repro.experiments.frontier",),
        bench="benchmarks/bench_fig10_frontier.py",
    ),
    Experiment(
        id="F11",
        artifact="Figure 11",
        description="Validation on the held-out LTE trace family",
        modules=("repro.traces.presets",),
        bench="benchmarks/bench_fig11_lte.py",
    ),
    Experiment(
        id="F12",
        artifact="Figure 12",
        description="Self-contention and contention against CUBIC",
        modules=("repro.experiments.scenarios",),
        bench="benchmarks/bench_fig12_contention.py",
    ),
    Experiment(
        id="F13",
        artifact="Figure 13",
        description="Inter-continental wired-path throughput for CUBIC, "
        "BBR, PR(L), PR(H), PR(max)",
        modules=("repro.experiments.scenarios",),
        bench="benchmarks/bench_fig13_wired.py",
    ),
    Experiment(
        id="F14",
        artifact="Figure 14",
        description="Downstream performance under a concurrent upstream "
        "CUBIC flow (congested uplink)",
        modules=("repro.experiments.scenarios",),
        bench="benchmarks/bench_fig14_uplink.py",
    ),
    Experiment(
        id="F12N",
        artifact="Figure 12 (N×M)",
        description="Systematic contention/fairness grid: algorithm "
        "mixes × flow counts {2,4,16,64} × start patterns × traces, "
        "reduced to Jain's index, goodput shares, and t_buff inflation",
        modules=(
            "repro.experiments.contention_grid",
            "repro.metrics.stats",
            "repro.report.heatmap",
        ),
        bench="benchmarks/bench_fairness_grid.py",
    ),
    Experiment(
        id="FL1",
        artifact="§3 fluid model (flow-level tier)",
        description="Multi-flow fluid engine: per-flow rate/t_buff "
        "trajectories on trace-driven capacity with cell-tower fan-in "
        "and handovers, cross-validated against the packet engine "
        "(scripts/check_fluid_xval.py)",
        modules=(
            "repro.fluid.engine",
            "repro.fluid.controllers",
            "repro.fluid.xval",
        ),
        bench="benchmarks/bench_fluid_scaling.py",
    ),
    Experiment(
        id="W1",
        artifact="Figures 1-2 (packet-level)",
        description="The buffer-delay sawtooth extracted from the full "
        "packet simulator and checked against the closed-form geometry",
        modules=("repro.metrics.telemetry", "repro.core.model"),
        bench="benchmarks/bench_waveform_packet.py",
    ),
    Experiment(
        id="R1",
        artifact="§5.3 replication",
        description="Headline Figure-7 claims replicated across 5 trace "
        "seeds with paired sign tests and bootstrap CIs",
        modules=("repro.experiments.replication", "repro.metrics.compare"),
        bench="benchmarks/bench_replication.py",
    ),
    Experiment(
        id="ABL",
        artifact="Ablations",
        description="Design-choice ablations: bandwidth filter, probe "
        "burst, timestamp granularity, delayed ACKs, adaptive target",
        modules=("repro.core.estimators", "repro.core.adaptive"),
        bench="benchmarks/bench_ablations.py",
    ),
    Experiment(
        id="D1",
        artifact="§6 discussion",
        description="Shallow buffers and CoDel AQM: PropRate vs CUBIC vs BBR",
        modules=("repro.sim.queues", "repro.experiments.scenarios"),
        bench="benchmarks/bench_disc_shallow_aqm.py",
    ),
]

EXPERIMENTS: Dict[str, Experiment] = {e.id: e for e in _EXPERIMENTS}


def describe_all() -> str:
    """A printable index of every reproduced artifact."""
    lines = []
    for exp in _EXPERIMENTS:
        lines.append(f"{exp.id:6s} {exp.artifact:14s} {exp.bench}")
        lines.append(f"       {exp.description}")
    return "\n".join(lines)
