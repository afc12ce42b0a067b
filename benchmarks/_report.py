"""Shared reporting for the per-figure/table benchmarks.

Each benchmark regenerates one paper artifact and emits its rows both to
stdout and to ``benchmarks/results/<name>.txt`` so the reproduction is
inspectable after the run.  EXPERIMENTS.md records the expected shapes.
"""

from __future__ import annotations

import os
import pathlib
from typing import Callable, Iterable

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Simulated seconds per flow in the heavier benchmarks.  Override with
#: REPRO_BENCH_DURATION for quicker smoke runs or longer, smoother ones.
DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "30"))

#: Warm-up excluded from measurements.
MEASURE_START = float(os.environ.get("REPRO_BENCH_WARMUP", "4"))

#: Worker processes for the batch-capable benchmarks (1 = serial,
#: 0 = all cores).  Results are identical at any job count.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def emit(name: str, lines: Iterable[str]) -> str:
    """Print a result table and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    banner = f"\n=== {name} ===\n{text}\n"
    print(banner, flush=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    return text


def dump_profile(workload: Callable[[], object], out: pathlib.Path,
                 label: str) -> None:
    """cProfile one call of ``workload`` for a failing gate.

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


def emit_flow_csv(name: str, results) -> None:
    """Also write the machine-readable CSV for a flow-results table."""
    from repro.report.export import flow_results_to_csv

    RESULTS_DIR.mkdir(exist_ok=True)
    flow_results_to_csv(results, RESULTS_DIR / f"{name}.csv")


def emit_frontier_csv(name: str, points) -> None:
    from repro.report.export import frontier_to_csv

    RESULTS_DIR.mkdir(exist_ok=True)
    frontier_to_csv(points, RESULTS_DIR / f"{name}.csv")


def flow_row(name: str, result) -> str:
    """One Figure-7-style row: algorithm, throughput, delay stats."""
    return (
        f"{name:10s} tput={result.throughput_kbps:8.1f} KB/s "
        f"mean={result.delay.mean_ms:8.1f} ms "
        f"p95={result.delay.p95_ms:8.1f} ms "
        f"drops={result.bottleneck_drops:6d} "
        f"rtx={result.retransmissions:6d} rto={result.rto_count:3d}"
    )
