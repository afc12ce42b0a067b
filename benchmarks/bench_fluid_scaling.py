"""Fluid-tier scaling: flow-seconds per wall-second vs the packet engine.

The fluid tier's reason to exist is throughput of *scenario work*: it
must simulate at least two orders of magnitude more flow-seconds per
wall-second than the packet engine (the ISSUE-8 acceptance gate), and a
1000-flow cell-tower fan-in with handovers must finish inside 10 s of
wall time.  This benchmark measures both, against a packet-engine
reference running the same controller mix on the same wired capacity.

Scale the fan-in with REPRO_BENCH_FLUID_FLOWS (default 1000).  When the
wall-time gate fails, a cProfile of the fan-in is written to
``fluid-artifacts/`` under the working directory, which CI's fluid-xval
job uploads.
"""

import os
import pathlib
import time

from repro.experiments.parallel import CcSpec, proprate_spec
from repro.experiments.runner import (
    FlowSpec,
    cellular_path_config,
    run_experiment,
)
from repro.fluid import fan_in_scenario, run_fluid
from repro.traces.generator import constant_rate_trace

from _report import dump_profile, emit

#: Fan-in size for the wall-time gate.
N_FLOWS = int(os.environ.get("REPRO_BENCH_FLUID_FLOWS", "1000"))
N_TOWERS = 8
DURATION = 30.0
HANDOVERS = 200

#: Packet-engine reference: a small contention run whose cost per
#: flow-second prices the per-packet tier.
PACKET_FLOWS = 4
PACKET_DURATION = 6.0

#: Acceptance gates (ISSUE 8).
MIN_SPEEDUP = 100.0
MAX_FAN_IN_WALL = 10.0


def _packet_reference() -> float:
    """Wall seconds for the packet-engine reference run."""
    trace = constant_rate_trace(1.5e6, PACKET_DURATION, name="wired:12mbps")
    path = cellular_path_config(trace)
    flows = [
        FlowSpec(
            cc_factory=(proprate_spec(0.040) if i % 2 == 0
                        else CcSpec("CUBIC")).build,
            name=f"f{i}",
        )
        for i in range(PACKET_FLOWS)
    ]
    t0 = time.perf_counter()
    run_experiment(path, flows, PACKET_DURATION, measure_start=1.0)
    return time.perf_counter() - t0


def _fluid_fan_in():
    flows, towers, handovers = fan_in_scenario(
        N_FLOWS, N_TOWERS, DURATION, mix="pr-vs-cubic",
        handover_count=HANDOVERS,
    )
    t0 = time.perf_counter()
    report = run_fluid(flows, towers, DURATION, handovers=handovers)
    return time.perf_counter() - t0, report


def test_fluid_scaling():
    packet_wall = _packet_reference()
    packet_rate = PACKET_FLOWS * PACKET_DURATION / packet_wall

    fluid_wall, report = _fluid_fan_in()
    fluid_rate = N_FLOWS * DURATION / fluid_wall
    speedup = fluid_rate / packet_rate

    lines = [
        f"packet reference: {PACKET_FLOWS} flows x {PACKET_DURATION:.0f}s "
        f"in {packet_wall:.2f}s wall "
        f"({packet_rate:.0f} flow-seconds/wall-second)",
        f"fluid fan-in:     {N_FLOWS} flows x {DURATION:.0f}s over "
        f"{N_TOWERS} towers, {report.handovers_applied} handovers in "
        f"{fluid_wall:.2f}s wall "
        f"({fluid_rate:.0f} flow-seconds/wall-second)",
        f"speedup:          {speedup:.0f}x  (gate: >= {MIN_SPEEDUP:.0f}x)",
        f"fan-in wall:      {fluid_wall:.2f}s  "
        f"(gate: < {MAX_FAN_IN_WALL:.0f}s)",
        f"jfi:              {report.jfi:.3f}",
    ]
    emit("fluid_scaling", lines)

    # The run must have done the work it claims.
    assert report.handovers_applied == HANDOVERS
    assert sum(f.delivered_bytes for f in report.flows) > 0
    assert 0.0 <= report.jfi <= 1.0

    # ISSUE-8 acceptance gates.
    if fluid_wall >= MAX_FAN_IN_WALL:
        label = (f"{N_FLOWS}-flow fan-in took {fluid_wall:.2f}s (gate "
                 f"{MAX_FAN_IN_WALL:.0f}s)")
        dump_profile(_fluid_fan_in,
                     pathlib.Path("fluid-artifacts", "fluid_fanin_profile"),
                     label)
        raise AssertionError(label)
    assert speedup >= MIN_SPEEDUP, (
        f"fluid tier only {speedup:.0f}x the packet engine's "
        f"flow-seconds/wall-second (gate {MIN_SPEEDUP:.0f}x)"
    )
