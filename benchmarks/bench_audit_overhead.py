"""CPU overhead of the repro.debug invariant auditor.

Runs the Table-4 workload (the full Figure-7 algorithm line-up over the
ISP-A stationary trace) with auditing off and on and compares process
CPU time.  The auditor must stay an always-affordable switch: the
acceptance bound is <=15% on this workload, asserted loosely here
(<50%) because shared CI boxes are noisy.

Methodology notes, learned the hard way on a single-core box: wall
clock is hopeless under background load, so the measurement uses
``time.process_time``; repeats are interleaved (off/on/off/on...) so
drift hits both arms equally; the reported figure is the min-of-repeats
ratio, which discards GC and scheduler outliers.
"""

import time

from repro.experiments.algorithms import paper_algorithms
from repro.experiments.runner import run_single_flow
from repro.traces.presets import isp_trace

from _report import emit

DURATION = 10.0
REPEATS = 3


def _run_lineup(down, up, audit):
    start = time.process_time()
    for factory in paper_algorithms().values():
        run_single_flow(
            factory, down, up,
            duration=DURATION, measure_start=2.0, audit=audit,
        )
    return time.process_time() - start


def test_audit_overhead():
    down = isp_trace("A", "stationary", duration=60.0)
    up = isp_trace("A", "stationary", duration=60.0, direction="uplink")
    plain, audited = [], []
    for _ in range(REPEATS):
        plain.append(_run_lineup(down, up, audit=False))
        audited.append(_run_lineup(down, up, audit=True))
    base, with_audit = min(plain), min(audited)
    ratio = with_audit / base
    lines = [
        f"{'mode':10s} {'min s':>8s} {'all repeats (s)':>30s}",
        f"{'plain':10s} {base:8.2f} {'  '.join(f'{t:.2f}' for t in plain):>30s}",
        f"{'audited':10s} {with_audit:8.2f} "
        f"{'  '.join(f'{t:.2f}' for t in audited):>30s}",
        f"overhead: {(ratio - 1) * 100:+.1f}% (min-of-{REPEATS} process time, "
        f"full line-up x {DURATION:.0f} sim-s)",
    ]
    emit("audit_overhead", lines)
    assert ratio < 1.5, f"auditor overhead {ratio:.2f}x exceeds the loose bound"
