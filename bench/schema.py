"""Names, units, directions and bounds of everything the benchmark reports.

This module is the single source for ``BENCHMARK.json`` (``run.py
--emit-benchmark-json`` renders it), for the record ``run.py`` writes and
for the verdicts of ``compare.py``.  It imports nothing from the program
under test.
"""

from __future__ import annotations

#: How long one driver run measures (``--seconds`` default), and the
#: fewest timed passes a run may report a median over.
RUN_SECONDS = 8
MIN_PASSES = 5

#: name -> why the workload exists (one line, <= 200 characters).
WORKLOADS = {
    "bulk_cellular": (
        "Fig. 7 / Table 4 shape: one backlogged PR(M), CUBIC, BBR flow on a deep buffer; "
        "loss-free and ACK-clocked, so sender + congestion control + estimators do the work"
    ),
    "shallow_loss": (
        "40-packet buffer on a mobile trace: thousands of drops and RTOs, so the SACK "
        "scoreboard and recovery dominate and control-loop savings barely show"
    ),
    "contention_16": (
        "16 PropRate/CUBIC senders on one bottleneck: deepest event heap, per-flow demux, "
        "the quiescence horizon almost never open, so the per-opportunity serve path works"
    ),
    "applimited_burst": (
        "4 on/off CUBIC sources: the queue drains between bursts, so batched delivery "
        "carries most packets; the opposite delivery path to contention_16"
    ),
    "fluid_fanin": (
        "2000 fluid flows fanned into 8 towers: numpy fluid tier only, the packet tier "
        "does no work, so packet-tier changes must leave it flat; largest arrays"
    ),
    "batch_nfl_sweep": (
        "Fig. 9 grid of 18 RunSpecs through run_batch on 2 workers: scheduler dispatch, "
        "trace-ref dedup, result pickling; also the buffer-delay fidelity workload"
    ),
    "bulk_observed": (
        "bulk runs with telemetry off / sampled / full and the auditor, interleaved per "
        "round: the packet tier with observers attached, timed over the full-trace arm"
    ),
}

#: The workloads the fluid tier, not the packet tier, serves.
FLUID_WORKLOADS = ("fluid_fanin",)

#: End-to-end metrics every workload reports: (name, unit, better, bound).
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen before ``compare.py`` (and the driver) call it a regression.
END_TO_END = [
    ("flow_s_per_wall_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_flow_s", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("goodput_util", "ratio", "higher", 0.20),
    ("setup_s", "s", "lower", 0.25),
]

#: End-to-end metrics that exist on one workload only, or may be zero.
#: The driver's contract wants every end-to-end metric on every workload
#: and never zero, so they ride in the traced run's metric list (the
#: ``workload.`` prefix) and ``compare.py`` still judges them:
#: (name, unit, better, bound, bound kind, workloads).
WORKLOAD_END_TO_END = [
    ("failed_share", "ratio", "lower", 0.0, "absolute", None),
    ("tbuff_track_err_ms", "ms", "lower", 0.05, "relative", ("batch_nfl_sweep",)),
    ("trace_overhead_frac", "ratio", "lower", 0.03, "absolute", ("bulk_observed",)),
]

#: Metrics that repeat exactly for a given seed: ``compare.py`` demands
#: equality before it applies a bound.
EXACT = ("goodput_util", "failed_share", "tbuff_track_err_ms")

#: Per-layer metrics: (name, unit, better).  Counts repeat exactly
#: between two traced passes; ``*_s`` are per traced pass.
PER_LAYER = [
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.us_per_event", "us", "lower"),
    ("sim.engine.events_per_pkt", "ratio", "lower"),
    ("sim.engine.schedule_calls", "count", "lower"),
    ("sim.link.self_s", "s", "lower"),
    ("sim.link.enqueue_calls", "count", "lower"),
    ("sim.link.service_events", "count", "lower"),
    ("sim.link.us_per_pkt", "us", "lower"),
    ("sim.link.batched_pkt_share", "ratio", "higher"),
    ("sim.queues.self_s", "s", "lower"),
    ("sim.queues.drops", "count", "lower"),
    ("sim.queues.peak_depth", "count", "lower"),
    ("tcp.sender.self_s", "s", "lower"),
    ("tcp.sender.acks", "count", "lower"),
    ("tcp.sender.us_per_ack", "us", "lower"),
    ("tcp.sender.tick_events", "count", "lower"),
    ("tcp.sender.retransmissions", "count", "lower"),
    ("tcp.sender.rtos", "count", "lower"),
    ("tcp.scoreboard.self_s", "s", "lower"),
    ("tcp.scoreboard.calls", "count", "lower"),
    ("tcp.scoreboard.us_per_ack", "us", "lower"),
    ("tcp.receiver.self_s", "s", "lower"),
    ("tcp.receiver.data_pkts", "count", "lower"),
    ("tcp.receiver.acks_sent", "count", "lower"),
    ("tcp.receiver.us_per_pkt", "us", "lower"),
    ("tcp.congestion.control_s", "s", "lower"),
    ("tcp.congestion.calls", "count", "lower"),
    ("tcp.congestion.ms_per_sim_s.PR-M", "ms", "lower"),
    ("tcp.congestion.ms_per_sim_s.CUBIC", "ms", "lower"),
    ("tcp.congestion.ms_per_sim_s.BBR", "ms", "lower"),
    ("core.estimators.self_s", "s", "lower"),
    ("core.estimators.updates", "count", "lower"),
    ("core.feedback.adjustments", "count", "lower"),
    ("tcp.application.self_s", "s", "lower"),
    ("tcp.application.segments", "count", "higher"),
    ("metrics.collector_self_s", "s", "lower"),
    ("metrics.records", "count", "higher"),
    ("experiments.runner.build_s", "s", "lower"),
    ("experiments.runner.advance_s", "s", "lower"),
    ("experiments.runner.finalize_s", "s", "lower"),
    ("traces.generate_s", "s", "lower"),
    ("traces.compile_s", "s", "lower"),
    ("traces.opportunities", "count", "lower"),
    ("experiments.parallel.coord_cpu_s", "s", "lower"),
    ("experiments.parallel.first_outcome_s", "s", "lower"),
    ("experiments.parallel.effective_cores", "ratio", "higher"),
    ("experiments.parallel.specs", "count", "higher"),
    ("experiments.parallel.attempts", "count", "lower"),
    ("fluid.engine.run_s", "s", "lower"),
    ("fluid.engine.steps", "count", "lower"),
    ("fluid.engine.flow_steps_per_s", "1/s", "higher"),
    ("fluid.engine.report_s", "s", "lower"),
    ("fluid.controllers.self_s", "s", "lower"),
    ("fluid.controllers.calls", "count", "lower"),
    ("obs.self_s", "s", "lower"),
    ("obs.emit_calls", "count", "lower"),
    ("obs.trace_bytes_per_flow_s", "B/s", "lower"),
    ("obs.dropped_events", "count", "lower"),
    ("obs.sampled_overhead_frac", "ratio", "lower"),
    ("obs.arm_result_mismatches", "count", "lower"),
    ("debug.audit_overhead_frac", "ratio", "lower"),
    ("bench.span_overhead_frac", "ratio", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.host_spin_mops", "1/us", "higher"),
    ("bench.pass_wall_s", "s", "lower"),
    ("bench.traced_pass_wall_s", "s", "lower"),
    ("bench.missing_targets", "count", "lower"),
] + [("workload." + name, unit, better)
     for name, unit, better, _bound, _kind, _on in WORKLOAD_END_TO_END]


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
