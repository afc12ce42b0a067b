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

1. an explicit ``telemetry=`` argument (path, ``tcp://host:port`` to
   serve the trace to ``repro watch --connect`` clients, or a
   ``Tracer``);
2. the already-active ambient tracer (nested runs share it);
3. the ``REPRO_TELEMETRY`` environment variable: ``1``/``true`` writes
   ``telemetry/trace-<pid>-<n>.jsonl`` under the working directory, any
   other non-empty value is used as a path prefix.

A tracer may carry a :class:`~repro.obs.sampling.SamplingPolicy`
(``sampling=`` on the entry points, ``REPRO_TELEMETRY_SAMPLE`` from the
environment): ``emit`` consults it per event kind and the policy counts
every record it rejects, which :func:`close_scope` folds into
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
from repro.obs.sampling import SamplingPolicy, resolve_sampling
from repro.obs.sink import JsonlSink, Sink
from repro.util.env import SAMPLE_ENV, TELEMETRY_ENV, env_flag

#: Interval for the bottleneck-queue samplers attached by the runner.
QUEUE_SAMPLE_INTERVAL = 0.010

_env_seq = itertools.count()


def _open_sink(target: Union[str, Path]) -> Sink:
    """Sink for a string target: a JSONL file, or — for
    ``tcp://host:port`` — a broadcast server streaming the trace to
    connected ``repro watch --connect`` clients."""
    spec = str(target)
    if spec.startswith("tcp://"):
        from repro.obs.net import SocketStreamSink, parse_tcp_target

        host, port = parse_tcp_target(spec)  # type: ignore[misc]
        return SocketStreamSink(host, port)
    return JsonlSink(spec)


class Tracer:
    """Live telemetry handle: an event sink plus a metrics registry."""

    def __init__(self, sink: Sink,
                 metrics: Optional[MetricsRegistry] = None,
                 sampling: Optional[SamplingPolicy] = None) -> None:
        self.sink = sink
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sampling = sampling
        self.events = 0

    def emit(self, kind: str, t: float, flow: Optional[int] = None,
             **fields: Any) -> None:
        if self.sampling is not None and not self.sampling.admit(kind, t):
            return
        record = {"t": t, "kind": kind}
        if flow is not None:
            record["flow"] = flow
        record.update(fields)
        self.sink.write(record)
        self.events += 1

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


def env_sampling() -> Optional[SamplingPolicy]:
    """Policy mandated by ``REPRO_TELEMETRY_SAMPLE``, or ``None``."""
    value = env_flag(SAMPLE_ENV)
    return None if value is None else SamplingPolicy.parse(value)


def _effective_sampling(
    sampling: Union[str, SamplingPolicy, None],
) -> Optional[SamplingPolicy]:
    policy = resolve_sampling(sampling)
    if policy is None:
        policy = env_sampling()
    return policy


@contextmanager
def tracing(target: Union[str, Path, Tracer],
            sampling: Union[str, SamplingPolicy, None] = None,
            ) -> Iterator[Tracer]:
    """Activate a tracer for the duration of the block.

    A path target creates (and on exit closes) a :class:`JsonlSink`
    tracer; an existing :class:`Tracer` is activated without taking
    ownership (and keeps its own sampling policy — ``sampling=`` only
    applies to path targets).
    """
    owned = not isinstance(target, Tracer)
    if owned:
        tracer = Tracer(_open_sink(target),
                        sampling=_effective_sampling(sampling))
    else:
        tracer = target
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
                   sampling: Union[str, SamplingPolicy, None] = None,
                   ) -> Tuple[Optional[Tracer], bool]:
    """Resolve a run's telemetry target to ``(tracer, owned)``.

    ``owned`` tells the caller it must deactivate and close the tracer
    when the run finishes; an ambient or caller-provided tracer is
    never owned.  ``sampling`` (a spec string or policy; falls back to
    ``REPRO_TELEMETRY_SAMPLE``) applies only when a tracer is
    constructed here — a pre-built or ambient tracer keeps its own.
    """
    if telemetry is not None:
        if isinstance(telemetry, Tracer):
            return telemetry, False
        return Tracer(_open_sink(telemetry),
                      sampling=_effective_sampling(sampling)), True
    ambient = current_tracer()
    if ambient is not None:
        return ambient, False
    path = env_trace_path()
    if path is not None:
        return Tracer(JsonlSink(path),
                      sampling=_effective_sampling(sampling)), True
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
    sampling: Union[str, SamplingPolicy, None] = None,
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
