"""The claim catalogue: every reproduced paper artifact, one index.

Each :class:`Experiment` is an id, the paper artifact it reproduces and
the function that runs it; the function's docstring is its description.
A run function writes its result tables under ``benchmarks/results/``
and reports each of the artifact's shape checks as a named
:class:`Claim` (``value op bound``).  :func:`reproduce` runs a chosen
set and writes every claim to ``benchmarks/results/claims.json``;
``python -m repro reproduce [ID ...] [--jobs N]`` is its command line.

DESIGN.md §5 lists the same ids with their workloads, and
EXPERIMENTS.md compares the results with the paper.  Only the
``reproduce`` and ``experiments`` commands import this package, so the
experiment harness never pays for loading it.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.reproduce import extensions, paper
from repro.reproduce.report import Claim, Report

__all__ = ["EXPERIMENTS", "Claim", "Experiment", "Report", "describe_all",
           "reproduce"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    id: str
    artifact: str
    run: Callable[[Report], None]

    @property
    def description(self) -> str:
        """The first paragraph of the run function's docstring, on one line."""
        doc = inspect.getdoc(self.run) or ""
        return " ".join(doc.split("\n\n")[0].split())


#: Where the result tables and ``claims.json`` go, relative to the
#: current directory.
RESULTS_DIR = Path("benchmarks", "results")

EXPERIMENTS: Dict[str, Experiment] = {e.id: e for e in (
    Experiment("T2", "Table 2", paper.table2_traces),
    Experiment("T3", "Table 3", paper.table3_taxonomy),
    Experiment("T4", "Table 4", paper.table4_cpu),
    Experiment("F1-3", "Figures 1-3", paper.fig1_3_waveforms),
    Experiment("W1", "Figures 1-2 (packet level)", paper.waveform_packet),
    Experiment("F7a", "Figure 7(a)", paper.fig7a_stationary),
    Experiment("F7b", "Figure 7(b)", paper.fig7b_mobile),
    Experiment("F8", "Figure 8", paper.fig8_sprint),
    Experiment("F9", "Figure 9", paper.fig9_nfl),
    Experiment("F10", "Figure 10", paper.fig10_frontier),
    Experiment("F11", "Figure 11", paper.fig11_lte),
    Experiment("F12a", "Figure 12(a)", paper.fig12a_self_contention),
    Experiment("F12b", "Figure 12(b)", paper.fig12b_vs_cubic),
    Experiment("F12N", "Figure 12 (N×M)", extensions.fairness_grid),
    Experiment("F13", "Figure 13", paper.fig13_wired),
    Experiment("F14", "Figure 14", paper.fig14_uplink),
    Experiment("FL1", "§3 fluid model (flow-level tier)", extensions.fluid_scaling),
    Experiment("R1", "§5.3 replication", extensions.replication),
    Experiment("D1", "§6 discussion", extensions.shallow_aqm),
    Experiment("A1", "Ablation: bandwidth filter", extensions.ablation_bandwidth_filter),
    Experiment("A2", "Ablation: probe burst", extensions.ablation_probe_burst),
    Experiment("A3", "Ablation: timestamp clock", extensions.ablation_ts_granularity),
    Experiment("A4", "Ablation: delayed ACKs", extensions.ablation_delayed_ack),
    Experiment("A5", "Extension: adaptive target", extensions.ablation_adaptive_target),
)}


def describe_all() -> str:
    """A printable index of every reproduced artifact."""
    lines = []
    for exp in EXPERIMENTS.values():
        lines.append(f"{exp.id:5s} {exp.artifact}")
        lines.append(f"      {exp.description}")
    return "\n".join(lines)


def reproduce(ids: Sequence[str] = (), jobs: int = 1) -> List[Claim]:
    """Run the artifacts ``ids`` (all of them when empty), in order.

    Result files go to ``benchmarks/results/`` under the current
    directory, and so does ``claims.json``: one ``{id, value, op, bound,
    pass}`` record per claim of this run.  An unknown id raises
    ``ValueError`` before anything runs or is written.  Returns every
    claim; a failed one is reported, not raised.  If a run function
    raises, ``claims.json`` still holds the claims gathered before it,
    and the exception propagates.
    """
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment id(s): {', '.join(unknown)}")
    reports: List[Report] = []
    try:
        for exp_id in dict.fromkeys(ids or EXPERIMENTS):
            reports.append(Report(exp_id, RESULTS_DIR, jobs=jobs))
            EXPERIMENTS[exp_id].run(reports[-1])
    finally:
        claims = [c for report in reports for c in report.claims]
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        rows = ",\n".join(json.dumps(c.to_dict()) for c in claims)
        (RESULTS_DIR / "claims.json").write_text(f"[\n{rows}\n]\n",
                                                 encoding="utf-8")
    return claims
