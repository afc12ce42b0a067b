"""Experiment harness: wiring flows onto paths and sweeping configurations.

* :mod:`repro.experiments.runner` — build a topology, attach flows, run,
  and reduce to :class:`~repro.experiments.runner.FlowResult` rows.
* :mod:`repro.experiments.scenarios` — the paper's multi-flow scenarios:
  contention (Figure 12), congested uplink (Figure 14), wired paths
  (Figure 13), shallow buffers / AQM (§6).
* :mod:`repro.experiments.frontier` — t̄_buff sweeps (Figures 9 and 10).
* :mod:`repro.experiments.algorithms` — the Table-3 algorithm line-up.
* :mod:`repro.experiments.options` — :class:`RunOptions`, the one value
  every batch driver takes for auditing, telemetry and scheduling.
* :mod:`repro.experiments.registry` — experiment id → runner index
  (the per-figure map of DESIGN.md §5).
"""

from repro.experiments.algorithms import (
    PR_TARGETS,
    paper_algorithms,
    proprate_factory,
    run_shootout,
)
from repro.experiments.options import RunOptions
from repro.experiments.parallel import (
    CcSpec,
    RunOutcome,
    RunSpec,
    collect,
    iter_batch,
    proprate_spec,
    run_batch,
)
from repro.experiments.frontier import (
    ConvergencePoint,
    FrontierPoint,
    iter_frontier,
    nfl_convergence,
    paper_frontier_targets,
    sweep_frontier,
)
from repro.experiments.registry import EXPERIMENTS, Experiment, describe_all
from repro.experiments.runner import (
    FlowResult,
    FlowSpec,
    cellular_path_config,
    run_experiment,
    run_single_flow,
    wired_path_config,
)
from repro.experiments.scenarios import (
    baseline_shift,
    contention_vs_cubic,
    self_contention,
    shallow_buffer,
    uplink_congestion,
    wired_path,
)

__all__ = [
    "EXPERIMENTS",
    "CcSpec",
    "ConvergencePoint",
    "Experiment",
    "FlowResult",
    "FlowSpec",
    "FrontierPoint",
    "PR_TARGETS",
    "RunOptions",
    "RunOutcome",
    "RunSpec",
    "baseline_shift",
    "cellular_path_config",
    "collect",
    "contention_vs_cubic",
    "describe_all",
    "iter_batch",
    "iter_frontier",
    "nfl_convergence",
    "paper_algorithms",
    "paper_frontier_targets",
    "proprate_factory",
    "proprate_spec",
    "run_batch",
    "run_experiment",
    "run_shootout",
    "run_single_flow",
    "self_contention",
    "shallow_buffer",
    "sweep_frontier",
    "uplink_congestion",
    "wired_path",
    "wired_path_config",
]
