"""Replicated shootout: Figure-7 headline claims across trace seeds.

The paper repeats its real-network experiments many times and reports
averages (§5.3).  This bench replays the headline comparison — PR(L),
PR(H), CUBIC, BBR, Sprout — across three seed-variants of the ISP-A
mobile spec and asserts the shape claims on the *aggregated* outcomes
(mean ± bootstrap CI), so a single lucky seed cannot carry the result.
"""

from repro.core.proprate import PropRate
from repro.experiments.replication import compare_algorithms, format_comparison
from repro.metrics.compare import stochastically_less
from repro.tcp.congestion import Bbr, Cubic, Sprout
from repro.traces.presets import PRESET_SPECS

from _report import emit

SEEDS = (11, 22, 33, 44, 55)  # 5 paired seeds: sign test p = 1/32
DURATION = 20.0


def test_replicated_shootout():
    results = compare_algorithms(
        {
            "PR(L)": lambda: PropRate(0.020),
            "PR(H)": lambda: PropRate(0.080),
            "CUBIC": Cubic,
            "BBR": Bbr,
            "Sprout": Sprout,
        },
        PRESET_SPECS["ISPA-mobile"],
        seeds=SEEDS,
        duration=DURATION,
        measure_start=4.0,
    )
    emit("replication_shootout", format_comparison(results))

    def delays(name):
        return [r.delay.mean for r in results[name].runs]

    def tputs(name):
        return [r.throughput for r in results[name].runs]

    # Headline claims must hold across seeds, not on one lucky trace.
    # The seeds are paired (same trace variant for every algorithm), so
    # the per-seed sign test is the right design: PR beating CUBIC on
    # all 5 paired seeds has p = 1/32 under the null.
    assert all(p < c for p, c in zip(delays("PR(H)"), delays("CUBIC")))
    assert all(p < c for p, c in zip(delays("PR(L)"), delays("CUBIC")))
    # Unpaired rank test for the wide gap: PR(L) vs CUBIC delays.
    assert stochastically_less(delays("PR(L)"), delays("CUBIC"))
    # PR(H) throughput stays within a modest gap of CUBIC on every seed.
    for pr, cubic in zip(tputs("PR(H)"), tputs("CUBIC")):
        assert pr > 0.6 * cubic
    # Sprout's throughput penalty holds in aggregate (individual smooth
    # seeds can let its variance-driven window open right up).
    assert results["Sprout"].throughput.mean < 0.7 * results["PR(H)"].throughput.mean
    # And the PropRate knob orders delay on every seed.
    for low, high in zip(delays("PR(L)"), delays("PR(H)")):
        assert low < high
