"""Phase-scoped wall/CPU profiling hooks (``repro trace --profile``).

A :class:`PhaseProfiler` attributes run time to named subsystem phases
— ``ack.scoreboard`` (the sender's ACK/scoreboard path), ``cc.control``
(the congestion controller's hooks: Table 4's control time),
``link.serve`` and ``delivery.pump`` (the cellular link),
``sched.dispatch`` (the batch coordinator), ``fluid.integrate`` (the
fluid tier) — without a sampling profiler or sys.setprofile.  It is the
package's one timer.  Hot callables are wrapped once at construction
(:meth:`wrap`), coarse regions use :meth:`span`; both accumulate
per-phase call counts plus wall (``perf_counter``) and CPU
(``process_time``) seconds.

The accumulated numbers are flushed into the run's metrics registry as
``run.timing.prof.<phase>.calls`` / ``.wall_s`` / ``.cpu_s`` counters.
Counters merge by summation, so batch aggregation works unchanged; the
``timing`` key fragment keeps them out of ``canonical_metrics``, so the
deterministic summary contract is untouched.

Profiling follows the tracer's ambient-activation pattern
(``current_profiler()`` captured at construction).  The entry points
*require* an active tracer — the measurements have nowhere to go
otherwise; a caller that reads :attr:`PhaseProfiler.phases` itself can
activate a bare one (:func:`profiling`).  Enable with
``profile=True`` on the entry points, ``--profile`` on the CLI, or
``REPRO_PROFILE=1`` in the environment (the env form is silently
ignored when telemetry is off so it can sit in CI without forcing
telemetry on; the explicit form raises — both decided in
:func:`repro.obs.tracer.observing`).  Wrapped
phases nest naturally — a pumped delivery that triggers ACK processing
charges both phases — so phase times are inclusive and do not sum to
wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.registry import MetricsRegistry
from repro.util.env import PROFILE_ENV, env_flag

#: Metrics key prefix for run-scope phase timings.
PROF_PREFIX = "run.timing.prof."


class PhaseProfiler:
    """Accumulates per-phase ``[calls, wall_s, cpu_s]`` triples."""

    def __init__(self) -> None:
        self.phases: Dict[str, List[float]] = {}

    def _cell(self, phase: str) -> List[float]:
        cell = self.phases.get(phase)
        if cell is None:
            cell = self.phases[phase] = [0, 0.0, 0.0]
        return cell

    def wrap(self, phase: str, fn: Callable) -> Callable:
        """A timed wrapper around ``fn`` charging ``phase`` per call.

        Components shadow their own bound methods at construction
        (``self.cb = prof.wrap("phase", self.cb)``), so the disabled
        path keeps the plain method and pays nothing.  The wall clock is
        read innermost, so ``wall_s`` leaves out the CPU clock's own
        cost (a system call: ~0.3 µs a read, against ~0.06 µs for
        ``perf_counter``, on a 2-vCPU x86 Linux VM).
        """
        cell = self._cell(phase)
        perf, cpu = time.perf_counter, time.process_time

        def timed(*args: Any, **kwargs: Any) -> Any:
            c0 = cpu()
            w0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += perf() - w0
                cell[2] += cpu() - c0
                cell[0] += 1

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def begin(self, phase: str) -> tuple:
        """Open a coarse region by hand; close it with :meth:`end`.

        For regions that would otherwise force re-indenting a large
        block under ``with`` — the span form below is preferred where
        it fits naturally.
        """
        c0 = time.process_time()
        return (self._cell(phase), time.perf_counter(), c0)

    def end(self, token: tuple) -> None:
        cell, w0, c0 = token
        cell[0] += 1
        cell[1] += time.perf_counter() - w0
        cell[2] += time.process_time() - c0

    @contextmanager
    def span(self, phase: str) -> Iterator[None]:
        """Charge one coarse region (e.g. the whole fluid integration)."""
        token = self.begin(phase)
        try:
            yield
        finally:
            self.end(token)

    def flush_into(self, metrics: MetricsRegistry,
                   prefix: str = PROF_PREFIX) -> None:
        """Add the accumulated phase timings as mergeable counters.

        Accumulators are reset on flush (the cells themselves stay
        live for already-wrapped callables), so a profiler shared
        across sequential runs contributes per-run deltas.
        """
        for phase in sorted(self.phases):
            cell = self.phases[phase]
            calls, wall, cpu = cell
            if not calls:
                continue
            metrics.counter(f"{prefix}{phase}.calls").add(calls)
            metrics.counter(f"{prefix}{phase}.wall_s").add(wall)
            metrics.counter(f"{prefix}{phase}.cpu_s").add(cpu)
            cell[0] = 0
            cell[1] = 0.0
            cell[2] = 0.0


_active: Optional[PhaseProfiler] = None


def current_profiler() -> Optional[PhaseProfiler]:
    """The ambient profiler, or ``None`` when profiling is off."""
    return _active


def activate_profiler(profiler: PhaseProfiler) -> PhaseProfiler:
    global _active
    if _active is not None:
        raise RuntimeError("a profiler is already active in this process")
    _active = profiler
    return profiler


def deactivate_profiler() -> None:
    global _active
    _active = None


@contextmanager
def profiling() -> Iterator[PhaseProfiler]:
    """A fresh bare profiler, ambient for the block.

    No tracer receives its timings: the caller reads
    :attr:`PhaseProfiler.phases` itself.  That is how Table 4 reads
    ``cc.control`` with no telemetry cost inside the control time.
    """
    profiler = activate_profiler(PhaseProfiler())
    try:
        yield profiler
    finally:
        deactivate_profiler()


def env_profile() -> bool:
    """Whether ``REPRO_PROFILE`` asks for profiling."""
    return env_flag(PROFILE_ENV) is not None
