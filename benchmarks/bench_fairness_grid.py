"""N×M contention/fairness grid (Figure 12 generalized).

Runs the reduced contention grid — algorithm mixes × flow counts ×
start patterns × traces — through the parallel batch scheduler and
emits the per-cell Jain's index, goodput-share spread, and t_buff
inflation vs the single-flow baseline, plus the ASCII heatmaps the
``repro grid`` CLI prints.

Scale up with REPRO_BENCH_JOBS (worker processes); the full grid is an
artifact run via ``repro grid --out grid.json``, not a CI benchmark.
"""

from repro.experiments.contention_grid import REDUCED_GRID, run_grid
from repro.experiments.options import RunOptions
from repro.report.heatmap import render_grid_heatmaps

from _report import JOBS, emit


def _run():
    return run_grid(
        REDUCED_GRID, n_jobs=JOBS, run_options=RunOptions(audit=True))


def test_fairness_grid(benchmark):
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    data = report.to_dict()

    lines = [
        f"{'mix':12s} {'flows':>5s} {'pattern':10s} {'trace':14s} "
        f"{'jain':>6s} {'min/max share':>13s} {'tbuff_x':>8s}"
    ]
    for cell in data["cells"]:
        shares = cell["shares"]
        spread = (
            f"{min(shares):5.2f}/{max(shares):4.2f}" if shares else "   --"
        )
        infl = cell["tbuff_inflation"]
        lines.append(
            f"{cell['mix']:12s} {cell['flows']:5d} {cell['pattern']:10s} "
            f"{cell['trace']:14s} {cell['jain']:6.3f} {spread:>13s} "
            f"{'--' if infl is None else format(infl, '8.2f')}"
        )
    lines.append("")
    lines.append(render_grid_heatmaps(data))
    emit("fairness_grid", lines)

    # Every cell reduced: a Jain's index is always defined and bounded
    # by [1/n, 1]; shares sum to ~1 unless every flow starved.
    for cell in data["cells"]:
        n = cell["flows"]
        assert cell["jain"] is not None
        assert 1.0 / n - 1e-9 <= cell["jain"] <= 1.0 + 1e-9
        total = sum(cell["shares"])
        assert total == 0.0 or abs(total - 1.0) < 1e-6

    # Baselines exist for every trace the cells reference.
    assert data["baselines"], "grid must carry single-flow baselines"
