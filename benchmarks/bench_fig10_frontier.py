"""Figure 10: the PropRate performance frontier.

Sweeps t̄_buff over the paper's grid (12-30 ms step 1, 30-120 ms step 4)
on the ISP-A mobile trace and overlays the CUBIC / BBR / Sprout / PCC
reference points.  The paper's claims: the frontier is smooth and
monotone-ish (more target delay buys more throughput), and it dominates
the fixed operating points of the other algorithms.
"""

import numpy as np

from repro.experiments.algorithms import run_shootout
from repro.experiments.frontier import sweep_frontier
from repro.traces.presets import isp_trace

from _report import JOBS, MEASURE_START, emit, emit_flow_csv, emit_frontier_csv

#: A thinned version of the paper grid keeps the bench under a minute;
#: the full grid is available through sweep_frontier(targets=None).
TARGETS = [t / 1000.0 for t in list(range(12, 31, 3)) + list(range(34, 121, 12))]
SWEEP_DURATION = 20.0


def test_fig10_frontier():
    down = isp_trace("A", "mobile", duration=60.0)
    up = isp_trace("A", "mobile", duration=60.0, direction="uplink")
    points = sweep_frontier(
        down, up, targets=TARGETS,
        duration=SWEEP_DURATION, measure_start=MEASURE_START,
        n_jobs=JOBS,
    )
    references = run_shootout(
        down, up, names=("CUBIC", "BBR", "Sprout", "PCC"),
        duration=SWEEP_DURATION, measure_start=MEASURE_START,
        n_jobs=JOBS,
    )
    lines = [f"{'target ms':>9s} {'tput KB/s':>10s} {'mean ms':>8s} {'p95 ms':>8s}"]
    for p in points:
        lines.append(
            f"{p.target_tbuff * 1000:9.0f} {p.throughput_kbps:10.1f} "
            f"{p.mean_delay_ms:8.1f} {p.p95_delay_ms:8.1f}"
        )
    lines.append("-- reference points --")
    for name, r in references.items():
        lines.append(
            f"{name:>9s} {r.throughput_kbps:10.1f} {r.delay.mean_ms:8.1f} "
            f"{r.delay.p95_ms:8.1f}"
        )
    emit("fig10_frontier", lines)
    emit_frontier_csv("fig10_frontier", points)
    emit_flow_csv("fig10_references", references)

    tputs = np.array([p.throughput_kbps for p in points])
    delays = np.array([p.mean_delay_ms for p in points])
    targets = np.array([p.target_tbuff for p in points])

    # The frontier trades delay for throughput: both rise with the target
    # (allowing simulation noise: check the rank correlation).
    def _rank_corr(a, b):
        ra, rb = np.argsort(np.argsort(a)), np.argsort(np.argsort(b))
        return float(np.corrcoef(ra, rb)[0, 1])

    assert _rank_corr(targets, delays) > 0.7
    assert _rank_corr(targets, tputs) > 0.4

    # The frontier dominates the forecast-based fixed points: some sweep
    # point beats Sprout and PCC on *both* axes.
    for name in ("Sprout", "PCC"):
        ref = references[name]
        assert any(
            p.throughput_kbps >= ref.throughput_kbps
            and p.mean_delay_ms <= ref.delay.mean_ms * 1.6
            for p in points
        ), name
