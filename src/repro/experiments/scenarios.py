"""Multi-flow and non-cellular scenarios from the paper's evaluation.

* :func:`self_contention` / :func:`contention_vs_cubic` — Figure 12:
  two flows share the bottleneck, the second starting 30 s after the
  first, both measured over the following 60 s.
* :func:`uplink_congestion` — Figure 14: a downlink flow races a
  concurrent CUBIC upload that saturates the uplink, delaying ACKs.
* :func:`wired_path` — Figure 13: inter-continental wired bottlenecks.
* :func:`shallow_buffer` — the §6 discussion experiment: small buffers
  and CoDel AQM.
* :func:`baseline_shift` — a handover/signal change (§4.1): the
  underlying one-way delay jumps mid-flow, stressing the RD_min
  baseline of delay-based algorithms.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import repro.obs as obs
from repro.experiments.runner import (
    CcFactory,
    ExperimentHarness,
    FlowResult,
    FlowSpec,
    cellular_path_config,
    run_experiment,
    wired_path_config,
)
from repro.tcp.congestion.cubic import Cubic
from repro.traces.presets import WIRED_PATHS
from repro.traces.trace import Trace

#: Figure-12 timing: flow 1 at t=0, flow 2 at t=30 s, measure 30–90 s.
CONTENTION_SECOND_START = 30.0
CONTENTION_OVERLAP = 60.0


def self_contention(
    cc_factory: CcFactory,
    downlink_trace: Trace,
    uplink_trace: Optional[Trace] = None,
    name: str = "",
    audit: Optional[bool] = None,
) -> Tuple[FlowResult, FlowResult]:
    """Two flows of the same algorithm share the path (Figure 12(a)).

    Returns (first flow, second flow) results, both measured over the
    60 s the flows overlap.
    """
    start2 = CONTENTION_SECOND_START
    end = start2 + CONTENTION_OVERLAP
    flows = [
        FlowSpec(
            cc_factory=cc_factory,
            name=f"{name or 'flow'}-1",
            start=0.0,
            measure_start=start2,
            measure_end=end,
        ),
        FlowSpec(
            cc_factory=cc_factory,
            name=f"{name or 'flow'}-2",
            start=start2,
            measure_start=start2,
            measure_end=end,
        ),
    ]
    results = run_experiment(
        cellular_path_config(downlink_trace, uplink_trace),
        flows,
        duration=end,
        audit=audit,
    )
    return results[0], results[1]


def contention_vs_cubic(
    cc_factory: CcFactory,
    downlink_trace: Trace,
    uplink_trace: Optional[Trace] = None,
    cubic_first: bool = True,
    name: str = "algo",
    audit: Optional[bool] = None,
) -> Dict[str, FlowResult]:
    """One algorithm against CUBIC cross traffic (Figure 12(b)).

    ``cubic_first`` selects the start order; the late flow starts 30 s
    in, and both are measured over the 60 s overlap.  Returns results
    keyed "cubic" and ``name``.
    """
    start2 = CONTENTION_SECOND_START
    end = start2 + CONTENTION_OVERLAP
    specs = {
        "cubic": FlowSpec(
            cc_factory=Cubic,
            name="cubic",
            start=0.0 if cubic_first else start2,
            measure_start=start2,
            measure_end=end,
        ),
        name: FlowSpec(
            cc_factory=cc_factory,
            name=name,
            start=start2 if cubic_first else 0.0,
            measure_start=start2,
            measure_end=end,
        ),
    }
    # (start, name) — start alone leaves tie-start ordering (and with it
    # flow-id assignment, hence event tie-breaks) to dict-insertion
    # accident, which is invisible here but breaks byte-identity when a
    # grid cell launches both flows at t=0.
    ordered = sorted(specs.values(), key=lambda f: (f.start, f.name))
    results = run_experiment(
        cellular_path_config(downlink_trace, uplink_trace),
        ordered,
        duration=end,
        audit=audit,
    )
    return {r.name: r for r in results}


def uplink_congestion(
    cc_factory: CcFactory,
    downlink_trace: Trace,
    uplink_trace: Trace,
    duration: float = 40.0,
    measure_start: float = 5.0,
    name: str = "down",
    audit: Optional[bool] = None,
) -> Dict[str, FlowResult]:
    """Figure 14: a download races a CUBIC upload saturating the uplink.

    The upload's data packets share the uplink bottleneck with the
    download's ACK stream; cwnd-based downloads stall because their ACK
    clock is delayed, while one-way-delay-driven rate-based senders keep
    the downlink busy.
    """
    flows = [
        FlowSpec(cc_factory=cc_factory, name=name, direction="down"),
        FlowSpec(cc_factory=Cubic, name="cubic-upload", direction="up"),
    ]
    results = run_experiment(
        cellular_path_config(downlink_trace, uplink_trace),
        flows,
        duration=duration,
        measure_start=measure_start,
        audit=audit,
    )
    return {r.name: r for r in results}


def wired_path(
    cc_factory: CcFactory,
    region: str = "US",
    duration: float = 30.0,
    measure_start: float = 3.0,
    name: str = "",
    audit: Optional[bool] = None,
) -> FlowResult:
    """Figure 13: a single flow over an inter-continental wired path.

    Regions and their (rate, RTT, buffer) come from
    :data:`repro.traces.presets.WIRED_PATHS`.
    """
    if region not in WIRED_PATHS:
        raise ValueError(f"unknown region {region!r}; have {sorted(WIRED_PATHS)}")
    rate, rtt, buffer_packets = WIRED_PATHS[region]
    config = wired_path_config(rate, rtt, buffer_packets)
    results = run_experiment(
        config,
        [FlowSpec(cc_factory=cc_factory, name=name or region)],
        duration=duration,
        measure_start=measure_start,
        audit=audit,
    )
    return results[0]


def shallow_buffer(
    cc_factory: CcFactory,
    downlink_trace: Trace,
    buffer_packets: int = 60,
    aqm: str = "droptail",
    duration: float = 30.0,
    measure_start: float = 3.0,
    name: str = "",
    audit: Optional[bool] = None,
) -> FlowResult:
    """§6 discussion: shallow bottleneck buffers and CoDel AQM."""
    config = cellular_path_config(
        downlink_trace, buffer_packets=buffer_packets, aqm=aqm
    )
    results = run_experiment(
        config,
        [FlowSpec(cc_factory=cc_factory, name=name or "flow")],
        duration=duration,
        measure_start=measure_start,
        audit=audit,
    )
    return results[0]


def baseline_shift(
    cc_factory: CcFactory,
    downlink_trace: Trace,
    shift_delta: float,
    shift_at: float = 8.0,
    duration: float = 30.0,
    measure_start: float = 4.0,
    name: str = "",
    audit: Optional[bool] = None,
) -> FlowResult:
    """§4.1: shift the underlying one-way delay mid-flow (handover).

    ``shift_delta`` is added to the downlink propagation delay at
    ``shift_at`` seconds.  A positive shift makes every buffer-delay
    estimate read too high until the old RD minimum ages out of the
    estimator's window; a negative one self-heals immediately.
    """
    # The shift is an extra event on an ordinary harness, so the run
    # gets the same auditor and telemetry records as run_experiment's.
    with obs.observing() as (tracer, profiler):
        harness = ExperimentHarness(
            cellular_path_config(downlink_trace),
            [FlowSpec(cc_factory=cc_factory, name=name or "shifted")],
            duration,
            measure_start=measure_start,
            audit=audit,
            tracer=tracer,
            profiler=profiler,
        )
        link = harness.path.forward_link

        def shift() -> None:
            link.prop_delay += shift_delta

        harness.sim.schedule_at(shift_at, shift)
        return harness.finalize()[0]
