"""What an artifact's run function reports: result tables and claims.

A run function regenerates one paper artifact.  It writes its tables
through :meth:`Report.emit` (printed, and persisted under
``benchmarks/results/``) and states each shape check of the paper as a
named :class:`Claim` through :meth:`Report.claim` instead of asserting,
so one run reports every claim that failed, not only the first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Union

if TYPE_CHECKING:
    from repro.experiments.runner import FlowResult

#: Simulated seconds per flow and the warm-up excluded from measurement
#: in the artifacts that do not fix their own (EXPERIMENTS.md,
#: "Simulation defaults").
DURATION = 30.0
MEASURE_START = 4.0

#: A claim's value and bound: a number, or a label / flag checked by ``==``.
Value = Union[float, int, str, bool]

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One checked statement: ``value op bound`` must hold."""

    id: str
    value: Value
    op: str
    bound: Value

    @property
    def passed(self) -> bool:
        return bool(_OPS[self.op](self.value, self.bound))

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "value": _json_value(self.value),
                "op": self.op, "bound": _json_value(self.bound),
                "pass": self.passed}

    def __str__(self) -> str:
        return f"{self.id}: {self.value!r} {self.op} {self.bound!r}"


def _json_value(value: Value) -> Any:
    # JSON has no NaN or infinity; a non-finite value reads as null.
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class Report:
    """The sink one artifact's run function writes into.

    ``experiment`` prefixes every claim id; ``jobs`` is the worker count
    the batch-capable artifacts fan out over (1 = serial, 0 = all
    cores; results are identical at any count).
    """

    def __init__(self, experiment: str, results_dir: Path, jobs: int = 1) -> None:
        self.experiment = experiment
        self.results_dir = results_dir
        self.jobs = jobs
        self.claims: List[Claim] = []

    def claim(self, name: str, value: Value, op: str, bound: Value) -> None:
        """Record that ``value op bound`` should hold (checked, not raised)."""
        if op not in _OPS:
            raise ValueError(f"unknown claim operator {op!r}")
        self.claims.append(Claim(f"{self.experiment}.{name}", value, op, bound))

    def path(self, filename: str) -> Path:
        """Where a results file named ``filename`` goes."""
        self.results_dir.mkdir(parents=True, exist_ok=True)
        return self.results_dir / filename

    def emit(self, name: str, lines: Iterable[str]) -> None:
        """Print a result table and persist it as ``<name>.txt``."""
        text = "\n".join(lines)
        print(f"\n=== {name} ===\n{text}\n", flush=True)
        self.path(f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def flow_row(name: str, result: "FlowResult") -> str:
    """One Figure-7-style row: algorithm, throughput, delay stats."""
    return (
        f"{name:10s} tput={result.throughput_kbps:8.1f} KB/s "
        f"mean={result.delay.mean_ms:8.1f} ms "
        f"p95={result.delay.p95_ms:8.1f} ms "
        f"drops={result.bottleneck_drops:6d} "
        f"rtx={result.retransmissions:6d} rto={result.rto_count:3d}"
    )


def dump_profile(workload: Callable[[], object], out: Path, label: str) -> None:
    """cProfile one call of ``workload`` for a failing claim.

    Writes ``<out>.pstats`` (for pstats/snakeviz) and ``<out>.txt`` (the
    top 40 functions by cumulative and by own time), which CI uploads
    so a regression can be diagnosed without reproducing the runner.
    """
    import cProfile
    import pstats

    out.parent.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.runcall(workload)
    profiler.dump_stats(f"{out}.pstats")
    with open(f"{out}.txt", "w", encoding="utf-8") as fh:
        fh.write(f"gate: {label}\n")
        stats = pstats.Stats(profiler, stream=fh)
        stats.sort_stats("cumulative").print_stats(40)
        stats.sort_stats("tottime").print_stats(40)
    print(f"profile written to {out}.pstats / .txt")
