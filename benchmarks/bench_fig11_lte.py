"""Figure 11: validation on the held-out LTE trace family.

The paper validates Cellsim against real LTE runs; our analogue checks
that the algorithm ordering established on the Table-2 traces carries
over to an independently generated trace family (different seeds and
moments) — i.e. the findings are not artefacts of one trace.
"""

from repro.experiments.algorithms import run_shootout
from repro.traces.presets import lte_validation_trace

from _report import DURATION, JOBS, MEASURE_START, emit, flow_row


def test_fig11_lte_validation():
    down = lte_validation_trace(duration=60.0)
    up = lte_validation_trace(duration=60.0, direction="uplink")
    results = run_shootout(
        down, up, duration=DURATION, measure_start=MEASURE_START, n_jobs=JOBS,
    )
    lines = [flow_row(name, r) for name, r in results.items()]
    emit("fig11_lte", lines)

    pr_l, pr_h = results["PR(L)"], results["PR(H)"]
    cubic, bbr, sprout = results["CUBIC"], results["BBR"], results["Sprout"]

    # Same qualitative ordering as Figure 7 on an unseen trace family.
    assert pr_l.delay.mean < pr_h.delay.mean
    assert pr_l.throughput < pr_h.throughput
    assert cubic.delay.mean > 3 * pr_h.delay.mean
    assert pr_h.throughput > 0.6 * cubic.throughput
    assert sprout.throughput < pr_h.throughput
    assert bbr.delay.mean < 0.5 * cubic.delay.mean
