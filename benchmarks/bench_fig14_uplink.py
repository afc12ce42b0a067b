"""Figure 14: downstream performance under a saturated uplink.

A concurrent upstream CUBIC flow fills the uplink buffer, delaying the
downstream flow's ACKs.  cwnd-based downloads stall — their ACK clock
dries up — while one-way-delay-driven rate-based senders (PropRate, RRE)
keep the downlink busy.  BBR also does well (its pacing is not
ACK-clocked either).
"""

from repro.experiments.algorithms import paper_algorithms
from repro.experiments.scenarios import uplink_congestion
from repro.traces.presets import isp_trace

from _report import DURATION, MEASURE_START, emit, flow_row


def test_fig14_congested_uplink():
    down = isp_trace("A", "stationary", duration=60.0)
    up = isp_trace("A", "stationary", duration=60.0, direction="uplink")
    results = {}
    for name, factory in paper_algorithms().items():
        flows = uplink_congestion(
            factory, down, up, duration=DURATION, measure_start=MEASURE_START,
            name=name,
        )
        results[name] = flows[name]
    lines = [flow_row(name, r) for name, r in results.items()]
    emit("fig14_uplink", lines)

    pr_h, rre = results["PR(H)"], results["RRE"]
    cubic = results["CUBIC"]

    # Rate-based senders keep the downlink utilised despite ACK delays;
    # this is the problem RRE was built for and PropRate inherits.  The
    # ACK-clocked flows collapse by orders of magnitude (their delay
    # statistics are then meaningless — they barely deliver packets).
    best = max(r.throughput for r in results.values())
    assert pr_h.throughput > 0.4 * best
    assert rre.throughput > 0.4 * best
    assert pr_h.throughput > 10 * cubic.throughput
    # The one-way data path stays at a healthy delay for PropRate.
    assert pr_h.delay.mean < 0.150
