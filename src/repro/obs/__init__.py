"""Unified telemetry spine: structured events, metrics, JSONL export.

See ``docs/observability.md`` for the event schema and workflows.
``repro.obs.analyze`` (the ``repro trace`` backend) is intentionally
not imported here — it depends on :mod:`repro.metrics.telemetry` and
is loaded lazily by the CLI.
"""

from repro.obs.events import (
    ALL_KINDS,
    AUDIT_DUMP,
    AUDIT_EVENT,
    AUDIT_SENDER,
    AUDIT_VIOLATION,
    CC_EPOCH,
    CC_ESTIMATOR,
    CC_LOSS,
    CC_LOSS_RUNS,
    CC_NFL,
    CC_RECOVERY,
    CC_RTO,
    CC_STATE,
    ENV_EPISODE,
    ENV_STEP,
    FLUID_END,
    FLUID_HANDOVER,
    FLUID_LOSS,
    FLUID_RUN,
    FLUID_TOWER,
    FORMAT,
    GRID_CELL,
    LINK_BATCH,
    LINK_HANDOVER,
    LINK_OUTAGE,
    LINK_RECOVER,
    META,
    METRICS,
    QUEUE_SAMPLE,
    RUN_END,
    RUN_START,
    SCHED_DISPATCH,
    SCHED_OUTCOME,
    SCHED_RETRY,
    SCHED_TIMEOUT,
    SCHED_WORKER_DEATH,
)
from repro.obs.prof import (
    PROFILE_ENV,
    PhaseProfiler,
    activate_profiler,
    current_profiler,
    deactivate_profiler,
    env_profile,
    profiling,
)
from repro.obs.registry import (
    MetricsRegistry,
    canonical_metrics,
    flow_metrics_view,
    merge_snapshots,
    merge_value,
)
from repro.obs.sampling import PROTECTED_KINDS, KindBudget, SamplingPolicy
from repro.obs.sink import JsonlSink, encode
from repro.obs.tracer import (
    QUEUE_SAMPLE_INTERVAL,
    SAMPLE_ENV,
    TELEMETRY_ENV,
    Tracer,
    activate,
    close_scope,
    current_tracer,
    deactivate,
    env_trace_path,
    observing,
    require_tracer,
    resolve_tracer,
    tracing,
)

__all__ = [
    "ALL_KINDS", "AUDIT_DUMP", "AUDIT_EVENT", "AUDIT_SENDER",
    "AUDIT_VIOLATION", "CC_EPOCH",
    "CC_ESTIMATOR", "CC_LOSS", "CC_LOSS_RUNS", "CC_NFL", "CC_RECOVERY",
    "CC_RTO",
    "CC_STATE", "ENV_EPISODE", "ENV_STEP",
    "FLUID_END", "FLUID_HANDOVER", "FLUID_LOSS", "FLUID_RUN",
    "FLUID_TOWER", "FORMAT", "GRID_CELL", "LINK_BATCH", "LINK_HANDOVER", "LINK_OUTAGE",
    "LINK_RECOVER",
    "META", "METRICS", "QUEUE_SAMPLE", "RUN_END", "RUN_START",
    "SCHED_DISPATCH", "SCHED_OUTCOME", "SCHED_RETRY", "SCHED_TIMEOUT",
    "SCHED_WORKER_DEATH", "MetricsRegistry", "canonical_metrics",
    "flow_metrics_view", "merge_snapshots", "merge_value",
    "JsonlSink", "encode", "QUEUE_SAMPLE_INTERVAL",
    "SAMPLE_ENV", "TELEMETRY_ENV", "Tracer", "activate", "close_scope",
    "current_tracer", "deactivate", "env_trace_path", "observing",
    "require_tracer", "resolve_tracer", "tracing",
    "PROTECTED_KINDS", "KindBudget", "SamplingPolicy",
    "PROFILE_ENV", "PhaseProfiler", "activate_profiler",
    "current_profiler", "deactivate_profiler", "env_profile", "profiling",
]
