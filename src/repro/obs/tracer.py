"""Run-scoped tracer handle and process-wide activation.

The contract mirrors the audit switch (``repro.debug.audit_enabled``):
telemetry is **off by default** and instrumented components pay only a
``None`` check when it is off.  Components capture the ambient tracer
at construction time (``current_tracer()``), so a tracer must be
activated *before* the simulator/flows are built — every entry point
does this by entering :func:`observing`, which is the only place the
resolve → activate → tear-down sequence for a run's tracer and phase
profiler is written; ``tracing()`` is the tracer-only context manager
for hand-built simulations.

Resolution order for a run (``resolve_tracer``):

1. an explicit ``telemetry=`` argument (a trace file path or a
   ``Tracer``);
2. the already-active ambient tracer (nested runs share it);
3. the ``REPRO_TELEMETRY`` environment variable: ``1``/``true`` writes
   ``telemetry/trace-<pid>-<n>.jsonl`` under the working directory, any
   other non-empty value is used as a path prefix.

A tracer may be thinned by a sampling spec string (``sampling=`` on the
entry points, ``REPRO_TELEMETRY_SAMPLE`` from the environment), which it
parses into its own :class:`~repro.obs.sampling.SamplingPolicy`:
``emit`` decides each event-kind record by its kind's budget, periodic
sources thin themselves by :meth:`Tracer.budget`, and every rejected
record is counted, which :func:`close_scope` folds into
``run.telemetry.dropped.*`` (``batch.*`` for a batch) at the end.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.obs.prof import (
    PhaseProfiler,
    activate_profiler,
    current_profiler,
    deactivate_profiler,
    env_profile,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.sampling import KindBudget, SamplingPolicy
from repro.obs.sink import JsonlSink
from repro.util.env import SAMPLE_ENV, TELEMETRY_ENV, env_flag

#: Interval for the bottleneck-queue samplers attached by the runner.
QUEUE_SAMPLE_INTERVAL = 0.010

_env_seq = itertools.count()


class Tracer:
    """Live telemetry handle: an event sink plus a metrics registry."""

    def __init__(self, sink: JsonlSink,
                 metrics: Optional[MetricsRegistry] = None,
                 sampling: Optional[str] = None) -> None:
        self.sink = sink
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sampling = SamplingPolicy.parse(sampling) if sampling else None
        self.events = 0

    def emit(self, kind: str, t: float, flow: Optional[int] = None,
             **fields: Any) -> None:
        if self.sampling is not None:
            budget = self.sampling[kind]
            if budget is not None and not budget.admit(t):
                return
        record = {"t": t, "kind": kind}
        if flow is not None:
            record["flow"] = flow
        record.update(fields)
        self.sink.write(record)
        self.events += 1

    def budget(self, kind: str) -> Optional[KindBudget]:
        """The live budget a periodic source of ``kind`` thins itself by
        (``None``: write every tick)."""
        return None if self.sampling is None else self.sampling[kind]

    def close(self) -> None:
        self.sink.close()


def close_scope(tracer: Tracer, scope: str,
                profiler: Optional[PhaseProfiler] = None) -> Dict[str, Any]:
    """Fold a scope's phase timings and sampling drops into its metrics.

    ``scope`` is the key prefix (``run`` or ``batch``): the profiler's
    phases land in ``<scope>.timing.prof.*``, the records sampling
    rejected in ``<scope>.telemetry.dropped.<kind>`` plus their total
    ``<scope>.telemetry.dropped_events``.  Both accumulators reset, so
    a tracer or profiler shared by sequential scopes reports per-scope
    deltas.  Returns the metrics snapshot the scope's ``metrics``
    record carries.
    """
    metrics = tracer.metrics
    if profiler is not None:
        profiler.flush_into(metrics, prefix=f"{scope}.timing.prof.")
    sampling = tracer.sampling
    dropped = sampling.drain_dropped() if sampling is not None else {}
    if dropped:
        for kind, count in dropped.items():
            metrics.counter(f"{scope}.telemetry.dropped.{kind}").add(count)
        metrics.counter(f"{scope}.telemetry.dropped_events").add(
            sum(dropped.values()))
    return metrics.snapshot()


_active: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when telemetry is off."""
    return _active


def activate(tracer: Tracer) -> Tracer:
    global _active
    if _active is not None:
        raise RuntimeError("a tracer is already active in this process")
    _active = tracer
    return tracer


def deactivate() -> None:
    global _active
    _active = None


def _owned_tracer(path: Union[str, Path], sampling: Optional[str]) -> Tracer:
    """A tracer writing ``path``, thinned by ``sampling`` or else by
    ``REPRO_TELEMETRY_SAMPLE``.  A malformed spec raises ``ValueError``
    before the file is created."""
    spec = sampling or env_flag(SAMPLE_ENV)
    if spec:
        SamplingPolicy.parse(spec)
    return Tracer(JsonlSink(path), sampling=spec)


@contextmanager
def tracing(target: Union[str, Path, Tracer],
            sampling: Optional[str] = None) -> Iterator[Tracer]:
    """Activate a tracer for the duration of the block.

    A path target creates (and on exit closes) a :class:`JsonlSink`
    tracer; an existing :class:`Tracer` is activated without taking
    ownership (and keeps its own sampling — ``sampling=`` only applies
    to path targets).
    """
    owned = not isinstance(target, Tracer)
    tracer = _owned_tracer(target, sampling) if owned else target
    activate(tracer)
    try:
        yield tracer
    finally:
        deactivate()
        if owned:
            tracer.close()


def env_trace_path() -> Optional[str]:
    """Trace path mandated by ``REPRO_TELEMETRY``, or ``None`` if off."""
    value = env_flag(TELEMETRY_ENV)
    if value is None:
        return None
    n = next(_env_seq)
    if value.lower() in ("1", "true", "yes", "on"):
        return os.path.join("telemetry", f"trace-{os.getpid()}-{n}.jsonl")
    return f"{value}.{os.getpid()}-{n}.jsonl"


def resolve_tracer(telemetry: Union[str, Path, Tracer, None],
                   sampling: Optional[str] = None,
                   ) -> Tuple[Optional[Tracer], bool]:
    """Resolve a run's telemetry target to ``(tracer, owned)``.

    ``owned`` tells the caller it must deactivate and close the tracer
    when the run finishes; an ambient or caller-provided tracer is
    never owned.  ``sampling`` (a spec string; falls back to
    ``REPRO_TELEMETRY_SAMPLE``) applies only when a tracer is
    constructed here — a pre-built or ambient tracer keeps its own.
    """
    if telemetry is not None:
        if isinstance(telemetry, Tracer):
            return telemetry, False
        return _owned_tracer(telemetry, sampling), True
    ambient = current_tracer()
    if ambient is not None:
        return ambient, False
    path = env_trace_path()
    if path is not None:
        return _owned_tracer(path, sampling), True
    return None, False


def require_tracer(telemetry: Any, sampling: Any, profile: Any) -> None:
    """Reject an explicit ``sampling``/``profile`` that no tracer serves.

    A tracer resolves from the ``telemetry`` argument, the ambient
    tracer, or ``REPRO_TELEMETRY``; without one the sampled trace and
    the phase timings would be dropped on the floor.  Every door — leaf
    keyword, batch ``RunOptions``, CLI flag — reports it through this
    one check.  (``REPRO_TELEMETRY_SAMPLE`` / ``REPRO_PROFILE`` from
    the environment are defaults, not requests, and degrade silently.)
    """
    if sampling in (None, "") and not profile:
        return
    if (telemetry is None and current_tracer() is None
            and env_flag(TELEMETRY_ENV) is None):
        raise ValueError(
            "sampling/profile (--sample/--profile) need a telemetry "
            "target: pass telemetry= (--telemetry PATH) or set "
            f"{TELEMETRY_ENV}"
        )


@contextmanager
def observing(
    telemetry: Union[str, Path, Tracer, None] = None,
    sampling: Optional[str] = None,
    profile: Union[bool, PhaseProfiler, None] = None,
) -> Iterator[Tuple[Optional[Tracer], Optional[PhaseProfiler]]]:
    """A run's observers, ambient for the duration of the block.

    Yields ``(tracer, profiler)``, either possibly ``None``.  The
    tracer resolves as in :func:`resolve_tracer`; the profiler is the
    ambient one if any, else a new one when ``profile`` (``None`` →
    ``REPRO_PROFILE``) asks for it and a tracer exists to receive its
    timings.  Whatever this call activated it deactivates on exit, and a
    tracer it constructed it closes; ambient and caller-provided
    observers are left as found, so nested entries share the outer
    pair.
    """
    require_tracer(telemetry, sampling, profile)
    tracer, owns_tracer = resolve_tracer(telemetry, sampling=sampling)
    activated = tracer is not None and current_tracer() is not tracer
    if activated:
        activate(tracer)
    profiler = current_profiler()
    owns_profiler = False
    if profiler is None and tracer is not None:
        if profile is None:
            profile = env_profile()
        if profile:
            profiler = activate_profiler(
                profile if isinstance(profile, PhaseProfiler)
                else PhaseProfiler()
            )
            owns_profiler = True
    try:
        yield tracer, profiler
    finally:
        if owns_profiler:
            deactivate_profiler()
        if activated:
            deactivate()
        if owns_tracer:
            tracer.close()
