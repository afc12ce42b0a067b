"""Figure 8: the Sprint-like trace — poor connectivity with 54% outage.

The absolute throughputs are tiny; the figure's point is relative
robustness: aggressive loss-based algorithms (CUBIC, Westwood, RRE) grab
what little throughput exists at enormous delays (note the log-scale
axis in the paper), PropRate suffers from outage-induced losses, and BBR
is surprisingly robust.
"""

from repro.experiments.algorithms import paper_algorithms
from repro.experiments.runner import run_single_flow
from repro.traces.presets import sprint_like_trace

from _report import DURATION, MEASURE_START, emit, flow_row


def test_fig8_sprint_trace():
    trace = sprint_like_trace(duration=120.0)
    results = {}
    for name, factory in paper_algorithms().items():
        results[name] = run_single_flow(
            factory, trace, None,
            duration=max(DURATION, 60.0), measure_start=MEASURE_START,
        )
    lines = [flow_row(name, r) for name, r in results.items()]
    emit("fig8_sprint", lines)

    # Nobody exceeds the trace's capacity by more than the backlog
    # carried into the measurement window: with multi-second outages the
    # queue built before measure_start drains inside the window, so
    # goodput can transiently exceed the window's own capacity.
    capacity = trace.mean_throughput()
    for result in results.values():
        assert result.throughput <= capacity * 1.5
    # The aggressive loss-based algorithms pay with high delay whenever
    # they do push data through.
    cubic = results["CUBIC"]
    sprout = results["Sprout"]
    if cubic.delay.count and sprout.delay.count:
        assert cubic.delay.p95 > sprout.delay.p95
    # Outages mean losses for PropRate (the paper's observation).
    assert results["PR(H)"].rto_count >= 1 or results["PR(H)"].retransmissions > 0
