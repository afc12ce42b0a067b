"""Figure 12: contention — self-contention and against CUBIC.

(a) Two flows of the same algorithm, the second starting 30 s late:
    PropRate and BBR share near-fairly (late/early ratio close to 1)
    while CUBIC's late flow gets roughly a quarter.
(b) Against CUBIC cross traffic: PR(H) contends reasonably, PR(L) keeps
    a smaller but non-zero share, BBR is less aggressive than CUBIC.
"""

from repro.core.proprate import PropRate
from repro.experiments.scenarios import contention_vs_cubic, self_contention
from repro.tcp.congestion import Bbr, Cubic
from repro.traces.presets import isp_trace

from _report import emit


def _traces():
    return (
        isp_trace("A", "stationary", duration=120.0),
        isp_trace("A", "stationary", duration=120.0, direction="uplink"),
    )


def test_fig12a_self_contention():
    down, up = _traces()
    ratios = {}
    for name, factory in (
        ("PropRate", lambda: PropRate(0.080)),
        ("CUBIC", Cubic),
        ("BBR", Bbr),
    ):
        first, second = self_contention(factory, down, up, name=name)
        ratios[name] = (first, second)
    lines = [f"{'Algorithm':10s} {'flow1 KB/s':>11s} {'flow2 KB/s':>11s} {'ratio':>7s}"]
    computed = {}
    for name, (first, second) in ratios.items():
        ratio = second.throughput / max(1e-9, first.throughput)
        computed[name] = ratio
        lines.append(
            f"{name:10s} {first.throughput_kbps:11.1f} "
            f"{second.throughput_kbps:11.1f} {ratio:7.2f}"
        )
    emit("fig12a_self_contention", lines)

    # Paper: ~100% for PropRate and BBR, ~23% for CUBIC's late flow.
    assert computed["PropRate"] > 0.5
    assert computed["BBR"] > 0.5
    assert computed["CUBIC"] < computed["PropRate"]
    assert computed["CUBIC"] < 0.7


def test_fig12b_vs_cubic():
    down, up = _traces()
    results = {}
    for name, factory in (
        ("PR(H)", lambda: PropRate(0.080)),
        ("PR(L)", lambda: PropRate(0.020)),
        ("BBR", Bbr),
    ):
        results[name] = contention_vs_cubic(
            factory, down, up, cubic_first=True, name=name
        )
    lines = [f"{'Algorithm':8s} {'algo KB/s':>10s} {'CUBIC KB/s':>11s} {'share':>7s}"]
    shares = {}
    for name, flows in results.items():
        algo, cubic = flows[name], flows["cubic"]
        share = algo.throughput / max(1e-9, algo.throughput + cubic.throughput)
        shares[name] = share
        lines.append(
            f"{name:8s} {algo.throughput_kbps:10.1f} "
            f"{cubic.throughput_kbps:11.1f} {share:7.2f}"
        )
    emit("fig12b_vs_cubic", lines)

    # PR(L) is not completely starved; PR(H) contends better than PR(L).
    assert shares["PR(L)"] > 0.02
    assert shares["PR(H)"] > shares["PR(L)"]
    assert shares["BBR"] > 0.15
