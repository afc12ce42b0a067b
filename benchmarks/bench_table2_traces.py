"""Table 2: statistics of the six synthetic ISP traces.

Regenerates every trace and reports the mean and standard deviation of
its 100 ms-windowed throughput next to the paper's targets.
"""

from repro.traces.presets import TABLE2_TARGETS, isp_trace

from _report import emit


def test_table2_trace_statistics():
    lines = [
        f"{'Trace':22s} {'Mean KB/s':>10s} {'(paper)':>9s} "
        f"{'Std KB/s':>10s} {'(paper)':>9s}"
    ]
    measured = {}
    for (isp, mode), (mean_t, std_t) in sorted(TABLE2_TARGETS.items()):
        stats = isp_trace(isp, mode, duration=120.0).stats()
        measured[isp, mode] = stats
        lines.append(
            f"ISP {isp}-{mode:11s} {stats.mean_kbps:10.1f} {mean_t:9.1f} "
            f"{stats.std_kbps:10.1f} {std_t:9.1f}"
        )
    emit("table2_traces", lines)
    # The reproduction must match the paper's moments closely.
    for (isp, mode), (mean_t, std_t) in TABLE2_TARGETS.items():
        stats = measured[isp, mode]
        assert abs(stats.mean_kbps - mean_t) / mean_t < 0.03
        assert abs(stats.std_kbps - std_t) / std_t < 0.10
