"""Figure 7: the full algorithm shootout on stationary and mobile traces.

Runs every Table-3 algorithm plus PR(L)/PR(M)/PR(H) over the ISP-A
stationary and mobile traces and reports throughput vs mean/95th-pct
one-way packet delay.  The shape assertions encode the paper's findings:

* PropRate traces a more efficient frontier — PR(H) approaches the
  loss-based algorithms' throughput at a fraction of their delay;
* CUBIC/NewReno saturate the 2,000-packet buffer (delays of hundreds of
  ms to seconds);
* the forecast-based algorithms (Sprout, PCC) achieve low delay at a
  significant throughput penalty;
* BBR performs surprisingly well: high throughput at moderate delay.
"""

from repro.experiments.algorithms import run_shootout
from repro.traces.presets import isp_trace

from _report import DURATION, JOBS, MEASURE_START, emit, emit_flow_csv, flow_row


def _shootout(mode):
    down = isp_trace("A", mode, duration=60.0)
    up = isp_trace("A", mode, duration=60.0, direction="uplink")
    return run_shootout(
        down, up, duration=DURATION, measure_start=MEASURE_START, n_jobs=JOBS,
    )


def _check_shapes(results):
    pr_l, pr_m, pr_h = results["PR(L)"], results["PR(M)"], results["PR(H)"]
    cubic, bbr = results["CUBIC"], results["BBR"]
    sprout, pcc = results["Sprout"], results["PCC"]

    # The PropRate knob is monotone along the frontier.
    assert pr_l.delay.mean < pr_m.delay.mean < pr_h.delay.mean
    assert pr_l.throughput < pr_h.throughput

    # CUBIC fills the deep buffer: an order of magnitude more delay than
    # PR(H) for comparable throughput.
    assert cubic.delay.mean > 4 * pr_h.delay.mean
    assert pr_h.throughput > 0.6 * cubic.throughput

    # Forecast-based algorithms: low delay, large throughput penalty.
    assert sprout.delay.mean < cubic.delay.mean / 4
    assert sprout.throughput < 0.7 * pr_h.throughput
    assert pcc.throughput < 0.7 * pr_h.throughput

    # PropRate's low configuration reaches the forecasters' delay class
    # at higher throughput (the paper's headline result).
    assert pr_l.throughput > max(sprout.throughput, pcc.throughput)

    # BBR: high throughput, moderate delay (well below the loss-based).
    assert bbr.throughput > 0.8 * cubic.throughput
    assert bbr.delay.mean < 0.5 * cubic.delay.mean


def test_fig7a_stationary():
    results = _shootout("stationary")
    lines = [flow_row(name, r) for name, r in results.items()]
    emit("fig7a_stationary", lines)
    emit_flow_csv("fig7a_stationary", results)
    _check_shapes(results)


def test_fig7b_mobile():
    results = _shootout("mobile")
    lines = [flow_row(name, r) for name, r in results.items()]
    emit("fig7b_mobile", lines)
    emit_flow_csv("fig7b_mobile", results)
    pr_l, pr_h = results["PR(L)"], results["PR(H)"]
    cubic = results["CUBIC"]
    assert pr_l.delay.mean < pr_h.delay.mean
    assert cubic.delay.mean > 3 * pr_h.delay.mean
