"""N×M contention/fairness grid — Figure 12 generalized.

The paper's contention evidence (Fig. 12) is two hand-built 2-flow
scenarios: PropRate against itself and PropRate against CUBIC.  This
module turns that into a systematic competition grid:

    (algorithm mix) × (flow count) × (start pattern) × (trace)

Each **cell** launches N flows of a cyclic algorithm mix over one
shared bottleneck, measures every flow over the common overlap window,
and reduces to three numbers:

* **Jain's fairness index** over per-flow goodput
  (:func:`repro.metrics.stats.jain_fairness`);
* **per-flow goodput shares** (:func:`goodput_shares`);
* **t_buff inflation** — the cell's mean queueing delay relative to a
  single-flow baseline of the same algorithm on the same trace, i.e.
  how much standing queue the contention itself adds.

Cells are picklable :class:`GridCellSpec`\\ s and run through the
work-stealing scheduler (:func:`repro.experiments.parallel.run_batch`)
under one ``RunOptions`` (timeouts, retries, progress, observers); the
reduction is deterministic (no wall-clock anywhere), so a repeated
``run_grid`` is byte-identical at any job count.  Render the result with
:func:`repro.report.heatmap.render_grid_heatmap` and persist it with
:func:`repro.report.export.report_to_json`.

Related work motivates the default mixes: BBR's bandwidth-grabbing
under competition ("An Evaluation of BBR and its variants") and CUBIC's
fairness collapse on variable-rate links (TCP ROCCET) are published
pathologies of algorithms in :mod:`repro.tcp.congestion` — the grid
makes them regression-checked artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.experiments.options import RunOptions
from repro.experiments.parallel import (
    CcSpec,
    RefOrKey,
    collect,
    proprate_spec,
    resolve_trace,
    run_batch,
)
from repro.experiments.runner import (
    DEFAULT_PROP_DELAY,
    FlowResult,
    FlowSpec,
    cellular_path_config,
    run_experiment,
)
from repro.metrics.stats import finite_or_none, jain_fairness
from repro.sim.network import LinkConfig
from repro.sim.queues import DEFAULT_BUFFER_PACKETS
from repro.traces.presets import trace_for_label

__all__ = [
    "MIXES",
    "PATTERNS",
    "GridConfig",
    "FULL_GRID",
    "REDUCED_GRID",
    "GridCellSpec",
    "CellResult",
    "GridReport",
    "build_contention_flows",
    "goodput_shares",
    "expand_grid",
    "grid_size",
    "run_grid",
]

#: Mix key → cyclic tuple of (label, CcSpec).  A cell with N flows
#: cycles the tuple, so "pr-vs-cubic" at N=4 is PR, CUBIC, PR, CUBIC
#: and "pr-heavy" at N=4 is three PropRates against one CUBIC.
MIXES: Dict[str, Tuple[Tuple[str, CcSpec], ...]] = {
    "pr-self": (("pr", proprate_spec(0.040)),),
    "cubic-self": (("cubic", CcSpec("CUBIC")),),
    "pr-vs-cubic": (("pr", proprate_spec(0.040)), ("cubic", CcSpec("CUBIC"))),
    "pr-vs-bbr": (("pr", proprate_spec(0.040)), ("bbr", CcSpec("BBR"))),
    "bbr-vs-cubic": (("bbr", CcSpec("BBR")), ("cubic", CcSpec("CUBIC"))),
    "pr-heavy": (
        ("pr", proprate_spec(0.040)),
        ("pr", proprate_spec(0.040)),
        ("pr", proprate_spec(0.040)),
        ("cubic", CcSpec("CUBIC")),
    ),
    "pr-adaptive": (("pra", CcSpec("PR(A)")), ("cubic", CcSpec("CUBIC"))),
}

#: Start patterns.  "simultaneous" launches every flow at t=0 (the
#: synchronized-loss worst case); "staggered" spaces starts by the
#: config's ``stagger``; "late-half" launches half the flows at t=0 and
#: the rest together mid-ramp (the Fig.-12(b) late-joiner shape at N).
PATTERNS = ("simultaneous", "staggered", "late-half")


def _starts(pattern: str, n_flows: int, stagger: float) -> List[float]:
    if pattern == "simultaneous":
        return [0.0] * n_flows
    if pattern == "staggered":
        return [i * stagger for i in range(n_flows)]
    if pattern == "late-half":
        half = (n_flows + 1) // 2
        late = max(stagger, stagger * n_flows / 2.0)
        return [0.0] * half + [late] * (n_flows - half)
    raise ValueError(f"unknown start pattern {pattern!r}; have {PATTERNS}")


@dataclass(frozen=True)
class GridConfig:
    """One grid's axes and timing.

    ``traces`` entries are labels of the form ``"wired:<mbps>mbps"``
    (a constant-rate bottleneck through the cellular topology) or
    ``"cellular:<ISP>-<mode>"`` (a Table-2 preset trace); see
    :func:`repro.traces.presets.trace_for_label`.

    The measurement window is the common overlap: every flow is
    measured from ``max(starts) + settle`` for ``overlap`` seconds,
    and the cell runs exactly to the window's end.
    """

    mixes: Tuple[str, ...]
    flow_counts: Tuple[int, ...]
    patterns: Tuple[str, ...]
    traces: Tuple[str, ...]
    stagger: float = 0.5
    settle: float = 2.0
    overlap: float = 20.0
    aqm: str = "droptail"
    buffer_packets: int = DEFAULT_BUFFER_PACKETS

    def __post_init__(self) -> None:
        for axis in ("mixes", "flow_counts", "patterns", "traces"):
            if not getattr(self, axis):
                raise ValueError(f"{axis} must not be empty")
        for mix in self.mixes:
            if mix not in MIXES:
                raise ValueError(f"unknown mix {mix!r}; have {sorted(MIXES)}")
        for pattern in self.patterns:
            if pattern not in PATTERNS:
                raise ValueError(
                    f"unknown start pattern {pattern!r}; have {PATTERNS}"
                )
        if min(self.flow_counts) < 1:
            raise ValueError("flow_counts must be >= 1")
        if self.overlap <= 0:
            raise ValueError("overlap must be positive")
        for name in ("stagger", "settle"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.buffer_packets < 1:
            raise ValueError("buffer_packets must be >= 1")
        try:
            LinkConfig(rate=1.0, aqm=self.aqm).validate()
        except ValueError as err:
            raise ValueError(f"aqm: {err}") from None


#: The paper-scale grid: every mix, the {2, 4, 16, 64} flow ladder,
#: synchronized and staggered starts, one cellular and one wired
#: bottleneck.  Hours of simulated time — an artifact run, not a test.
FULL_GRID = GridConfig(
    mixes=tuple(MIXES),
    flow_counts=(2, 4, 16, 64),
    patterns=("simultaneous", "staggered"),
    traces=("cellular:B-mobile", "wired:8mbps"),
)

#: The CI-sized subset (2 mixes × {2, 4} flows × 1 pattern × 1 trace):
#: small enough for a smoke job, still multi-flow enough to exercise
#: the scheduler, the auditor's flow-scaled bands, and batched delivery.
REDUCED_GRID = GridConfig(
    mixes=("pr-self", "pr-vs-cubic", "pr-adaptive"),
    flow_counts=(2, 4),
    patterns=("staggered",),
    traces=("wired:4mbps",),
    stagger=0.25,
    settle=1.0,
    overlap=5.0,
)


def build_contention_flows(
    entries: Sequence[Tuple[str, CcSpec]],
    n_flows: int,
    pattern: str,
    stagger: float,
    settle: float,
    overlap: float,
) -> Tuple[List[FlowSpec], float]:
    """Expand a cyclic mix into N measured :class:`FlowSpec`\\ s.

    Generalizes the fixed 2-flow ``self_contention`` /
    ``contention_vs_cubic`` helpers: flow *i* runs ``entries[i % len]``
    starting per ``pattern``, and every flow is measured over the
    common overlap ``[max(starts) + settle, + overlap)``.  Returns the
    flows in deterministic (start, name) order plus the cell duration
    (== the measure window's end).
    """
    if n_flows < 1:
        raise ValueError("need at least one flow")
    starts = _starts(pattern, n_flows, stagger)
    measure_start = max(starts) + settle
    measure_end = measure_start + overlap
    width = max(2, len(str(n_flows - 1)))
    flows = [
        FlowSpec(
            cc_factory=entries[i % len(entries)][1].build,
            name=f"{entries[i % len(entries)][0]}-{i:0{width}d}",
            start=starts[i],
            measure_start=measure_start,
            measure_end=measure_end,
        )
        for i in range(n_flows)
    ]
    flows.sort(key=lambda f: (f.start, f.name))
    return flows, measure_end


def goodput_shares(throughputs: Sequence[float]) -> List[float]:
    """Per-flow goodput as a fraction of the cell total.

    The all-starved cell (total 0) reports equal zero shares rather
    than dividing by zero — consistent with ``jain_fairness``'s
    convention that an all-zero allocation is (vacuously) fair.
    """
    values = [float(v) for v in throughputs]
    if not values:
        raise ValueError("need at least one flow")
    total = sum(values)
    if total <= 0.0:
        return [0.0] * len(values)
    return [v / total for v in values]


# ----------------------------------------------------------------------
# Picklable cell specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridCellSpec:
    """One grid cell, picklable for the process pool.

    ``entries`` carries the mix inline (label, :class:`CcSpec`) so the
    spec is self-contained — baselines reuse the same shape with a
    single entry and ``n_flows=1``.  The trace travels as a reference
    through the batch layer's deduplicated table.
    """

    mix: str
    n_flows: int
    pattern: str
    trace_label: str
    entries: Tuple[Tuple[str, CcSpec], ...]
    downlink: RefOrKey
    stagger: float
    settle: float
    overlap: float
    aqm: str = "droptail"
    buffer_packets: int = DEFAULT_BUFFER_PACKETS
    #: Stamped by the batch layer (see ``RunSpec.run_options``).
    run_options: Optional[RunOptions] = None

    @property
    def is_baseline(self) -> bool:
        return self.n_flows == 1

    def cell_tags(self) -> Dict[str, Any]:
        """The cell coordinates, as telemetry / report tags."""
        return {
            "mix": self.mix,
            "flows": self.n_flows,
            "pattern": self.pattern,
            "trace": self.trace_label,
            "baseline": self.is_baseline,
        }

    def execute(self) -> List[FlowResult]:
        flows, duration = build_contention_flows(
            self.entries, self.n_flows, self.pattern,
            self.stagger, self.settle, self.overlap,
        )
        config = cellular_path_config(
            resolve_trace(self.downlink),
            buffer_packets=self.buffer_packets,
            aqm=self.aqm,
        )
        run = self.run_options or RunOptions()
        # Tag the cell's trace: one grid.cell record (a protected kind,
        # never sampled away) up front, then the run's own events —
        # run_experiment binds the ambient tracer and profiler and
        # flushes metrics/timings at the end.
        observers = obs.observing(run.telemetry, run.sampling, run.profile)
        with observers as (tracer, _):
            if tracer is not None:
                tracer.emit(obs.GRID_CELL, 0.0, **self.cell_tags())
            results = run_experiment(
                config, flows, duration=duration, audit=run.audit,
            )
        return [r.detached() for r in results]


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def _queueing_delay(result: FlowResult) -> Optional[float]:
    """Mean standing-queue delay: one-way mean minus propagation."""
    queueing = result.delay.mean - DEFAULT_PROP_DELAY
    return None if math.isnan(queueing) else max(0.0, queueing)


@dataclass
class CellResult:
    """One reduced grid cell."""

    mix: str
    n_flows: int
    pattern: str
    trace: str
    flow_names: List[str]
    throughputs: List[float]        # bytes/s, flow order
    shares: List[float]             # goodput fraction, flow order
    jain: float
    #: Mean queueing delay over flows with deliveries (seconds); None
    #: when every flow starved.
    queueing_delay: Optional[float]
    #: queueing_delay / single-flow baseline queueing delay, averaged
    #: over flows whose algorithm has a usable baseline.
    tbuff_inflation: Optional[float]
    per_flow_inflation: List[Optional[float]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mix": self.mix,
            "flows": self.n_flows,
            "pattern": self.pattern,
            "trace": self.trace,
            "flow_names": list(self.flow_names),
            "throughputs": [finite_or_none(t) for t in self.throughputs],
            "shares": [finite_or_none(s) for s in self.shares],
            "jain": finite_or_none(self.jain),
            "queueing_delay": finite_or_none(self.queueing_delay),
            "tbuff_inflation": finite_or_none(self.tbuff_inflation),
            "per_flow_inflation": [
                finite_or_none(v) for v in self.per_flow_inflation
            ],
        }


def _flow_label(name: str) -> str:
    """The mix-entry label a flow name was minted from."""
    return name.rsplit("-", 1)[0]


def reduce_cell(
    spec: GridCellSpec,
    results: Sequence[FlowResult],
    baselines: Dict[Tuple[str, str], Optional[float]],
) -> CellResult:
    """Reduce one cell's flow results against the single-flow baselines.

    ``baselines`` maps (mix-entry label, trace label) to the baseline
    queueing delay.  Inflation is computed per flow against its own
    algorithm's baseline, then averaged over the flows where both sides
    are well-defined; starved flows (NaN delay) contribute nothing.
    """
    throughputs = [r.throughput for r in results]
    shares = goodput_shares(throughputs)
    queueing = [_queueing_delay(r) for r in results]
    defined = [q for q in queueing if q is not None]
    per_flow_inflation: List[Optional[float]] = []
    for result, q in zip(results, queueing):
        base = baselines.get((_flow_label(result.name), spec.trace_label))
        if q is None or base is None or base <= 0.0:
            per_flow_inflation.append(None)
        else:
            per_flow_inflation.append(q / base)
    inflations = [v for v in per_flow_inflation if v is not None]
    return CellResult(
        mix=spec.mix,
        n_flows=spec.n_flows,
        pattern=spec.pattern,
        trace=spec.trace_label,
        flow_names=[r.name for r in results],
        throughputs=throughputs,
        shares=shares,
        jain=jain_fairness(throughputs),
        queueing_delay=sum(defined) / len(defined) if defined else None,
        tbuff_inflation=(
            sum(inflations) / len(inflations) if inflations else None
        ),
        per_flow_inflation=per_flow_inflation,
    )


@dataclass
class GridReport:
    """The reduced grid: config echo, baselines, one entry per cell."""

    config: GridConfig
    baselines: Dict[Tuple[str, str], Optional[float]]
    cells: List[CellResult]

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe, deterministic rendering (no wall-clock data)."""
        return {
            "format": "repro.grid/1",
            "config": {
                "mixes": list(self.config.mixes),
                "flow_counts": list(self.config.flow_counts),
                "patterns": list(self.config.patterns),
                "traces": list(self.config.traces),
                "stagger": self.config.stagger,
                "settle": self.config.settle,
                "overlap": self.config.overlap,
                "aqm": self.config.aqm,
                "buffer_packets": self.config.buffer_packets,
            },
            "baselines": {
                f"{label}@{trace}": finite_or_none(value)
                for (label, trace), value in sorted(self.baselines.items())
            },
            "cells": [cell.to_dict() for cell in self.cells],
        }


# ----------------------------------------------------------------------
# Expansion and the batch driver
# ----------------------------------------------------------------------
def expand_grid(
    config: GridConfig = FULL_GRID,
) -> Tuple[List[GridCellSpec], List[GridCellSpec]]:
    """Expand a config into (baseline specs, cell specs).

    Baselines are one single-flow cell per (mix-entry label, trace) —
    the denominator of every inflation figure.  Traces are built once
    per label, sized to the longest cell that uses them, and shared via
    the batch layer's deduplicated reference table.
    """
    durations = [
        build_contention_flows(
            MIXES[mix], n, pattern,
            config.stagger, config.settle, config.overlap,
        )[1]
        for mix in config.mixes
        for n in config.flow_counts
        for pattern in config.patterns
    ]
    trace_duration = max(durations) + 1.0
    trace_refs = {
        label: trace_for_label(label, trace_duration)
        for label in config.traces
    }

    common = dict(
        stagger=config.stagger,
        settle=config.settle,
        overlap=config.overlap,
        aqm=config.aqm,
        buffer_packets=config.buffer_packets,
    )
    baseline_specs = []
    seen = set()
    for mix in config.mixes:
        for label, cc in MIXES[mix]:
            for trace_label in config.traces:
                if (label, trace_label) in seen:
                    continue
                seen.add((label, trace_label))
                baseline_specs.append(
                    GridCellSpec(
                        mix=f"baseline:{label}",
                        n_flows=1,
                        pattern="simultaneous",
                        trace_label=trace_label,
                        entries=((label, cc),),
                        downlink=trace_refs[trace_label],
                        **common,
                    )
                )
    cell_specs = [
        GridCellSpec(
            mix=mix,
            n_flows=n,
            pattern=pattern,
            trace_label=trace_label,
            entries=MIXES[mix],
            downlink=trace_refs[trace_label],
            **common,
        )
        for mix in config.mixes
        for n in config.flow_counts
        for pattern in config.patterns
        for trace_label in config.traces
    ]
    return baseline_specs, cell_specs


def grid_size(config: GridConfig = FULL_GRID) -> int:
    """Total specs a :func:`run_grid` of ``config`` dispatches
    (baselines + cells) — sized without building any traces."""
    labels = {
        label for mix in config.mixes for label, _cc in MIXES[mix]
    }
    cells = (
        len(config.mixes)
        * len(config.flow_counts)
        * len(config.patterns)
        * len(config.traces)
    )
    return len(labels) * len(config.traces) + cells


def run_grid(
    config: GridConfig = FULL_GRID,
    n_jobs: int = 1,
    run_options: Optional[RunOptions] = None,
) -> GridReport:
    """Run every cell (plus baselines) and reduce to a :class:`GridReport`.

    All specs go through one :func:`run_batch` call, so baselines and
    cells share the work-stealing queue, under ``run_options`` as is.
    The report is deterministic: serial and parallel runs, at any job
    count, produce byte-identical :meth:`GridReport.to_dict` renderings
    (sampling only thins the event trace, never the results).
    """
    baseline_specs, cell_specs = expand_grid(config)
    specs = baseline_specs + cell_specs
    results = collect(run_batch(specs, n_jobs=n_jobs, run_options=run_options))

    baselines: Dict[Tuple[str, str], Optional[float]] = {}
    for spec, flow_results in zip(baseline_specs, results):
        (label, _cc), = spec.entries
        baselines[(label, spec.trace_label)] = _queueing_delay(
            flow_results[0]
        )
    cells = [
        reduce_cell(spec, flow_results, baselines)
        for spec, flow_results in zip(
            cell_specs, results[len(baseline_specs):]
        )
    ]
    return GridReport(config=config, baselines=baselines, cells=cells)
