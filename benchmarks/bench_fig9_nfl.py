"""Figure 9: negative-feedback-loop effectiveness.

Sweeps the target buffer delay from 20 to 120 ms on the mobile traces of
all three ISPs, with and without the NFL, and reports the achieved
average buffer delay (externally measured: mean one-way delay minus the
propagation delay).  The paper's finding: the NFL pulls the achieved
latency onto the target diagonal on volatile (mobile) traces.
"""

from repro.experiments.frontier import nfl_convergence
from repro.traces.presets import isp_trace

from _report import DURATION, JOBS, MEASURE_START, emit

TARGETS_MS = (20, 40, 60, 80, 100, 120)


def test_fig9_nfl_convergence():
    per_isp = {}
    for isp in ("A", "B", "C"):
        down = isp_trace(isp, "mobile", duration=60.0)
        up = isp_trace(isp, "mobile", duration=60.0, direction="uplink")
        per_isp[isp] = nfl_convergence(
            down, up,
            targets=[t / 1000.0 for t in TARGETS_MS],
            duration=DURATION,
            measure_start=MEASURE_START,
            n_jobs=JOBS,
        )
    lines = [f"{'ISP':4s} {'target ms':>9s} {'NFL ms':>8s} {'no-NFL ms':>10s}"]
    errors_nfl, errors_plain = [], []
    for isp, points in per_isp.items():
        with_nfl = {p.target_tbuff: p for p in points if p.with_feedback}
        without = {p.target_tbuff: p for p in points if not p.with_feedback}
        for target in sorted(with_nfl):
            nfl_pt, plain_pt = with_nfl[target], without[target]
            lines.append(
                f"{isp:4s} {target * 1000:9.0f} "
                f"{nfl_pt.achieved_tbuff * 1000:8.1f} "
                f"{plain_pt.achieved_tbuff * 1000:10.1f}"
            )
            errors_nfl.append(abs(nfl_pt.error))
            errors_plain.append(abs(plain_pt.error))
    emit("fig9_nfl", lines)

    mean_nfl = sum(errors_nfl) / len(errors_nfl)
    mean_plain = sum(errors_plain) / len(errors_plain)
    lines.append(f"mean |error|: NFL {mean_nfl*1000:.1f} ms, no NFL {mean_plain*1000:.1f} ms")
    emit("fig9_nfl", lines)
    # The feedback loop must track the target at least as well overall.
    assert mean_nfl <= mean_plain * 1.10
    # And with the NFL the achieved latency stays within a sane band.
    assert mean_nfl < 0.060
