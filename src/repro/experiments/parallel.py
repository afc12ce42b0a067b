"""Process-pool execution of experiment batches.

Every paper artifact is an embarrassingly parallel set of independent
simulations (the Figure-10 frontier is 43 of them).  This module maps
picklable run specifications onto worker processes:

* :class:`CcSpec` names a congestion-control configuration by registry
  name plus keyword parameters, so no factory closures ever cross a
  process boundary; workers rebuild the algorithm locally.
* :class:`RunSpec` is one single-flow run — congestion control, trace
  references, and path/flow parameters.  Traces travel as content-keyed
  references (:mod:`repro.traces.cache`); the dispatcher deduplicates
  them into a table shipped once per worker, and each worker
  materializes every distinct trace exactly once per process.
* :func:`iter_batch` executes any sequence of spec objects (anything
  with an ``execute()`` method and optional ``downlink``/``uplink``
  reference fields), yielding :class:`RunOutcome`\\ s **as they
  complete**.
* :func:`run_batch` is the in-order façade on top of :func:`iter_batch`
  — same execution, outcomes sorted back into submission order.

Scheduling: specs are dispatched one at a time from a shared queue with
at most ``n_jobs`` in flight, so an idle worker always takes the next
undone spec — work-stealing across long-tailed grids falls out of the
queue discipline instead of static chunk pre-cutting.  Long LTE
deep-buffer runs no longer pin a pre-assigned chunk of short runs
behind them.  One dispatch loop drives either a process pool or, for
``n_jobs=1``, an in-process executor with the same interface.

Determinism: the in-process and pool executors run the same
``execute()`` code against traces materialized by the same cache, and
each simulation is fully deterministic, so results are bit-identical
across job counts and completion orders.

Failure handling: an exception inside a spec is caught in the worker
and reported on that spec's outcome; the rest of the batch completes.
A result that cannot cross the process boundary (unpicklable) fails
only the offending spec.  If a worker process dies outright (breaking
the pool) or a spec exceeds its wall-clock ``timeout``, the pool is
torn down and respawned, and the lost specs are retried up to
``retries`` times before their outcomes report the loss.

Settings: how a batch is observed and scheduled arrives as one
:class:`~repro.experiments.options.RunOptions`.  This module is the
only one that takes it apart — the scheduler reads ``timeout`` /
``retries`` / ``on_outcome``, and every spec with a ``run_options``
field is stamped with the per-run part (``audit``, its part-file trace
path, ``sampling``, ``profile``) before dispatch.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import nullcontext
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import repro.obs as obs
from repro.experiments.options import RunOptions
from repro.experiments.runner import (
    DEFAULT_PROP_DELAY,
    FlowResult,
    run_single_flow,
)
from repro.sim.engine import RunDeadlineExceeded, set_run_deadline
from repro.sim.queues import DEFAULT_BUFFER_PACKETS
from repro.tcp.congestion.base import CongestionControl
from repro.traces import cache as trace_cache
from repro.traces.cache import TraceRef, as_ref
from repro.traces.trace import Trace

__all__ = [
    "CcSpec",
    "RunSpec",
    "RunOutcome",
    "iter_batch",
    "run_batch",
    "collect",
    "resolve_trace",
    "detach_results",
    "resolve_n_jobs",
]

#: A trace field: a reference, a not-yet-referenced Trace, or a content
#: key into the batch's deduplicated trace table.
RefOrKey = Union[TraceRef, Trace, str]


# ----------------------------------------------------------------------
# Congestion-control specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CcSpec:
    """A picklable congestion-control configuration.

    ``name`` is either ``"PropRate"`` (with ``params`` forwarded to the
    constructor) or any entry of
    :func:`repro.experiments.algorithms.paper_algorithms` — ``"CUBIC"``,
    ``"BBR"``, ``"PR(M)"``, and so on.  ``params`` is a tuple of
    ``(keyword, value)`` pairs so the spec stays hashable.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def build(self) -> CongestionControl:
        from repro.core.proprate import PropRate
        from repro.experiments.algorithms import paper_algorithms

        params = dict(self.params)
        if self.name == "PropRate":
            return PropRate(**params)
        factory = paper_algorithms().get(self.name)
        if factory is None:
            raise ValueError(f"unknown congestion control {self.name!r}")
        if params:
            if isinstance(factory, type):
                return factory(**params)
            raise ValueError(f"{self.name!r} does not accept parameters")
        return factory()


def proprate_spec(target: float, **kwargs: Any) -> CcSpec:
    """A :class:`CcSpec` for PropRate at a fixed t̄_buff."""
    params = (("target_buffer_delay", target),) + tuple(sorted(kwargs.items()))
    return CcSpec("PropRate", params)


# ----------------------------------------------------------------------
# Run specs and outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One single-flow cellular run (the :func:`run_single_flow` shape)."""

    cc: CcSpec
    downlink: RefOrKey
    uplink: Optional[RefOrKey] = None
    duration: float = 40.0
    measure_start: float = 5.0
    name: str = ""
    buffer_packets: int = DEFAULT_BUFFER_PACKETS
    prop_delay: float = DEFAULT_PROP_DELAY
    aqm: str = "droptail"
    #: Normally left ``None`` and stamped by the batch layer with the
    #: per-run part of the batch's options; a spec that brings its own
    #: keeps it whole and stays out of the merged batch trace.
    run_options: Optional[RunOptions] = None

    def execute(self) -> FlowResult:
        down = resolve_trace(self.downlink)
        up = resolve_trace(self.uplink) if self.uplink is not None else None
        options = self.run_options or RunOptions()
        result = run_single_flow(
            self.cc.build,
            down,
            up,
            duration=self.duration,
            measure_start=self.measure_start,
            name=self.name or self.cc.name,
            buffer_packets=self.buffer_packets,
            prop_delay=self.prop_delay,
            aqm=self.aqm,
            audit=options.audit,
            telemetry=options.telemetry,
            sampling=options.sampling,
            profile=options.profile,
        )
        return result.detached()


@dataclass
class RunOutcome:
    """One spec's fate: its (detached) result, or the failure report.

    ``attempts`` counts dispatches to a worker — 1 for a clean run, more
    when the spec was re-run after a timeout, a worker death charged to
    it, or an un-attributable pool breakage that re-queued it without
    charge (see :func:`iter_batch`).
    """

    index: int
    spec: Any
    result: Optional[Any] = None
    error: Optional[str] = field(repr=False, default=None)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def collect(outcomes: Sequence[RunOutcome]) -> List[Any]:
    """Results in submission order; raises if any spec failed."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        first = failed[0]
        raise RuntimeError(
            f"{len(failed)}/{len(outcomes)} runs failed; first "
            f"(spec #{first.index}):\n{first.error}"
        )
    return [o.result for o in sorted(outcomes, key=lambda o: o.index)]


# ----------------------------------------------------------------------
# Trace-reference plumbing
# ----------------------------------------------------------------------
#: The batch's deduplicated {content key -> reference} table.  Installed
#: in workers by the pool initializer and in-process by iter_batch.
_TRACE_TABLE: Dict[str, TraceRef] = {}


def resolve_trace(ref: RefOrKey) -> Trace:
    """Materialize a trace field through the per-process cache."""
    if isinstance(ref, str):
        ref = _TRACE_TABLE[ref]
    return trace_cache.get(ref)


def _strip_specs(
    specs: Sequence[Any],
) -> Tuple[List[Any], Dict[str, TraceRef]]:
    """Replace in-spec traces/references by content keys.

    Returns the rewritten specs plus the deduplicated reference table;
    each distinct trace is pickled to each worker once, via the table,
    however many specs use it.
    """
    table: Dict[str, TraceRef] = {}
    stripped: List[Any] = []
    for spec in specs:
        updates = {}
        for fieldname in ("downlink", "uplink"):
            value = getattr(spec, fieldname, None)
            if value is None or isinstance(value, str):
                continue
            ref = as_ref(value)
            table[ref.key] = ref
            updates[fieldname] = ref.key
        stripped.append(replace(spec, **updates) if updates else spec)
    return stripped, table


def _install_table(table: Dict[str, TraceRef]) -> None:
    _TRACE_TABLE.clear()
    _TRACE_TABLE.update(table)


def detach_results(value: Any) -> Any:
    """Detach every :class:`FlowResult` in a result structure.

    Scenario drivers return tuples/dicts of results; the live simulation
    handles they carry cannot cross a process boundary.
    """
    if isinstance(value, FlowResult):
        return value.detached()
    if isinstance(value, tuple):
        return tuple(detach_results(v) for v in value)
    if isinstance(value, list):
        return [detach_results(v) for v in value]
    if isinstance(value, dict):
        return {k: detach_results(v) for k, v in value.items()}
    return value


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------
def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """None/0 -> all cores; joblib-style negatives count from the end."""
    cores = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        return cores
    if n_jobs < 0:
        return max(1, cores + 1 + n_jobs)
    return n_jobs


def _run_entry(entry: Tuple[int, Any]) -> Tuple[int, Any, Optional[str]]:
    index, spec = entry
    try:
        return index, spec.execute(), None
    except RunDeadlineExceeded:
        raise  # a timeout: the scheduler charges it, not the outcome
    except Exception:  # noqa: BLE001 - reported on the outcome
        return index, None, traceback.format_exc()


def _init_worker(table: Dict[str, TraceRef]) -> None:
    _install_table(table)


class _InProcessExecutor:
    """The pool's stand-in for a batch that runs in this process.

    :func:`iter_batch` drives it exactly as it drives a
    ``ProcessPoolExecutor``, but ``submit`` runs the call at once and
    returns a finished future.  There is no worker to kill, so a
    ``timeout`` is the engine's ambient run deadline: the event loop
    raises :class:`RunDeadlineExceeded` between event batches, and the
    future carries it to the scheduler as a timeout.
    """

    def __init__(self, timeout: Optional[float]) -> None:
        self.timeout = timeout

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        if self.timeout is not None:
            set_run_deadline(time.monotonic() + self.timeout)
        try:
            future.set_result(fn(*args))
        except RunDeadlineExceeded as exc:
            future.set_exception(exc)
        finally:
            if self.timeout is not None:
                set_run_deadline(None)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Nothing runs in the background, so there is nothing to stop."""


_Executor = Union[ProcessPoolExecutor, _InProcessExecutor]


@dataclass
class _Task:
    """Dispatcher-side state for one spec: identity plus charged losses.

    ``suspect`` marks a task that was in flight when the pool broke with
    no identifiable culprit.  Suspects are quarantined — at most one is
    dispatched at a time — so the next breakage is attributable.
    """

    index: int
    spec: Any
    failures: int = 0  # timeouts + worker deaths charged so far
    dispatches: int = 0  # submissions to a worker, charged or not
    suspect: bool = False

    def outcome(self, result: Any = None,
                error: Optional[str] = None) -> RunOutcome:
        return RunOutcome(self.index, self.spec, result, error,
                          self.dispatches)


class _BatchTelemetry:
    """Coordinator half of batch telemetry.

    The coordinator owns the batch trace file: it writes ``sched.*``
    events (wall-clock seconds since batch start — scheduler events have
    no simulated clock), assigns each spec a worker part file
    (``<base>.part<index>.jsonl``), and at the end merges the parts back
    into the batch trace with every record tagged ``"run": <index>``,
    folding the per-run metrics snapshots into one ``scope="batch"``
    metrics record.  Workers never coordinate — they just write their
    own part, which also makes the in-process (``n_jobs=1``) trace
    identical.
    """

    def __init__(self, base: Union[str, os.PathLike],
                 sampling: Any = None,
                 profile: Optional[bool] = None) -> None:
        self.base = str(base)
        self.tracer = obs.Tracer(
            obs.JsonlSink(self.base),
            sampling=obs.resolve_sampling(sampling),
        )
        if profile is None:  # the rule every run resolves by
            profile = obs.env_profile()
        self.prof = obs.PhaseProfiler() if profile else None
        self.workers = 1
        self._t0 = time.monotonic()
        self._parts: Dict[int, str] = {}
        self.counters = {
            "dispatched": 0,
            "outcomes": 0,
            "retries": 0,
            "timeouts": 0,
            "worker_deaths": 0,
        }
        self._counted = {
            obs.SCHED_DISPATCH: "dispatched",
            obs.SCHED_OUTCOME: "outcomes",
            obs.SCHED_RETRY: "retries",
            obs.SCHED_TIMEOUT: "timeouts",
            obs.SCHED_WORKER_DEATH: "worker_deaths",
        }

    def part(self, index: int) -> str:
        """The part-file path spec ``index`` writes (merged at the end)."""
        path = f"{self.base}.part{index:04d}.jsonl"
        self._parts[index] = path
        return path

    def event(self, kind: str, **fields: Any) -> None:
        counted = self._counted.get(kind)
        if counted is not None:
            self.counters[counted] += 1
        self.tracer.emit(kind, time.monotonic() - self._t0, **fields)
        # Scheduler events are rare; flushing each one lets a live
        # `repro watch` follower see batch progress as it happens.
        flush = getattr(self.tracer.sink, "flush", None)
        if flush is not None:
            flush()

    def finalize(self) -> None:
        """Merge worker parts, write the batch metrics record, close."""
        totals: Dict[str, Any] = {}
        sink = self.tracer.sink
        for index in sorted(self._parts):
            prefix = '{"run":%d,' % index
            for path in obs.iter_trace_files(self._parts[index]):
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        # An unterminated line is what a worker killed
                        # mid-write (a timeout, an early close) leaves.
                        if not (line.startswith("{") and line.endswith("\n")):
                            continue
                        line = line[:-1]
                        if '"kind":"metrics"' in line:
                            try:
                                record = json.loads(line)
                            except ValueError:
                                record = {}
                            snap = record.get("metrics")
                            if isinstance(snap, dict):
                                obs.merge_snapshots(totals, snap)
                        sink.write_line(prefix + line[1:])
                os.remove(path)
        metrics = self.tracer.metrics
        for name, value in self.counters.items():
            metrics.counter(f"batch.sched.{name}").add(value)
        metrics.counter("batch.sched.steals").add(
            max(0, self.counters["dispatched"] - self.workers)
        )
        obs.merge_snapshots(
            totals, obs.close_scope(self.tracer, "batch", self.prof))
        self.event(obs.METRICS, scope="batch", metrics=totals)
        self.tracer.close()


def _kill_pool(pool: _Executor) -> None:
    """Tear a pool down hard: terminate workers, then force-kill stragglers.

    Needed to enforce wall-clock timeouts and early closes — a spec
    stuck inside ``execute()`` never returns to the executor, so the
    only way to reclaim the worker is to kill the process.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for proc in processes:
        proc.terminate()
    deadline = time.monotonic() + 5.0
    for proc in processes:
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():  # pragma: no cover - SIGTERM normally suffices
            proc.kill()
    pool.shutdown(wait=False, cancel_futures=True)


def iter_batch(
    specs: Sequence[Any],
    n_jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
    run_options: Optional[RunOptions] = None,
) -> Iterator[RunOutcome]:
    """Execute ``specs``, yielding outcomes **in completion order**.

    This is the streaming core of the batch layer: specs are dispatched
    one at a time from a shared queue with at most ``n_jobs`` in flight,
    so workers that finish short runs immediately steal the next undone
    spec while long-tailed runs are still going, and each outcome is
    yielded (and reported to ``run_options.on_outcome``) the moment it
    lands.

    Parameters
    ----------
    specs:
        Objects with an ``execute() -> picklable`` method; fields named
        ``downlink``/``uplink`` are treated as trace references and
        deduplicated into a once-per-worker table.
    n_jobs:
        Worker processes.  ``1`` runs serially in-process (no pool, as
        does a lone spec without a ``timeout``); ``None``/``0`` uses
        every core; negative counts from the end (``-1`` = all cores).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap, inherits imports) and the platform default
        elsewhere.
    run_options:
        The batch's :class:`~repro.experiments.options.RunOptions`
        (documented there, once).  What the scheduler adds to that
        description:

        * one dispatch loop serves both executors (DESIGN.md §14).  A
          ``timeout`` is measured from dispatch; other specs in flight
          when the pool is torn down re-queue without charge.  In
          process there is no worker to kill, so the simulation event
          loop checks a monotonic deadline between event batches
          (:func:`repro.sim.engine.set_run_deadline`) and the overrun
          is charged exactly like a pool timeout;
        * a loss is only charged to the spec that caused it: when a
          worker death takes down several in-flight specs and the
          culprit cannot be identified, none are charged — they
          re-queue as quarantined suspects (dispatched one at a time)
          so the next death is attributable and a poison spec cannot
          burn the ``retries`` budget of innocent queue-mates;
        * every spec with a ``run_options`` field left at ``None`` is
          stamped with :meth:`RunOptions.per_run` — the scheduler
          fields never reach a worker, so specs stay picklable whatever
          ``on_outcome`` is;
        * with ``profile`` the coordinator also times its dispatch
          bookkeeping (``batch.timing.prof.sched.dispatch``, one call
          per dispatch).

    Closing the generator early (``break``, or an exception in the
    consumer) kills the workers of any spec still running, so the
    process exits without waiting for them; the batch trace is still
    merged and readable.
    """
    entries = list(enumerate(specs))
    if not entries:
        return
    stripped, table = _strip_specs([s for _, s in entries])
    entries = [(i, s) for (i, _), s in zip(entries, stripped)]
    jobs = resolve_n_jobs(n_jobs)
    _install_table(table)  # in-process runs + fork parent share the table

    options = run_options or RunOptions()
    timeout, retries = options.timeout, options.retries
    on_outcome = options.on_outcome
    obs.require_tracer(options.telemetry, options.sampling, options.profile)
    bt = (
        _BatchTelemetry(options.telemetry, options.sampling, options.profile)
        if options.telemetry is not None
        else None
    )

    def stamp(index: int, spec: Any) -> Any:
        # A spec without the field, or one that brought its own options,
        # passes through untouched.
        if getattr(spec, "run_options", False) is not None:
            return spec
        part = bt.part(index) if bt is not None else None
        return replace(spec, run_options=options.per_run(part))

    if run_options is not None:
        entries = [(i, stamp(i, s)) for i, s in entries]
    prof = bt.prof if bt is not None else None

    def dispatch_span() -> ContextManager[None]:
        return prof.span("sched.dispatch") if prof is not None \
            else nullcontext()

    def event(kind: str, **fields: Any) -> None:
        if bt is not None:
            bt.event(kind, **fields)

    def emit(outcome: RunOutcome) -> RunOutcome:
        event(obs.SCHED_OUTCOME, spec=outcome.index, ok=outcome.ok,
              attempts=outcome.attempts)
        if on_outcome is not None:
            on_outcome(outcome)
        return outcome

    if start_method is None and "fork" in multiprocessing.get_all_start_methods():
        start_method = "fork"
    context = (
        multiprocessing.get_context(start_method) if start_method else None
    )

    queue = deque(_Task(i, s) for i, s in entries)
    # A lone spec without a timeout gains nothing from a worker process.
    inline = jobs == 1 or (len(entries) == 1 and timeout is None)
    workers = 1 if inline else min(jobs, len(entries))
    if bt is not None:
        bt.workers = workers
    pool: Optional[_Executor] = None
    inflight: Dict[Any, Tuple[_Task, Optional[float]]] = {}

    def settle_loss(
        task: _Task, reason: str, kind: str = obs.SCHED_WORKER_DEATH
    ) -> Optional[RunOutcome]:
        """Charge a timeout/death to ``task``; re-queue or report it."""
        task.failures += 1
        event(kind, spec=task.index, failures=task.failures)
        if task.failures <= retries:
            queue.append(task)
            event(obs.SCHED_RETRY, spec=task.index, failures=task.failures)
            return None
        return task.outcome(error=reason)

    def timed_out(task: _Task) -> Optional[RunOutcome]:
        return settle_loss(
            task,
            f"timed out after {timeout:.6g}s (attempt {task.dispatches})",
            kind=obs.SCHED_TIMEOUT,
        )

    def harvest(
        future: "Future[Any]", task: _Task, broken: List[_Task]
    ) -> Optional[RunOutcome]:
        """Turn a done future into an outcome (None = none yet).

        A run past its in-process deadline settles as a timeout.  A
        ``BrokenProcessPool`` is not charged here: the task joins
        ``broken`` and the caller attributes the loss once for all.
        """
        try:
            _, result, error = future.result()
        except BrokenProcessPool:
            broken.append(task)
            return None
        except RunDeadlineExceeded:
            return timed_out(task)
        except Exception:  # noqa: BLE001 - e.g. unpicklable result
            return task.outcome(error=traceback.format_exc())
        return task.outcome(result, error)

    try:
        while queue or inflight:
            if pool is None:
                pool = _InProcessExecutor(timeout) if inline else \
                    ProcessPoolExecutor(
                        max_workers=workers,
                        mp_context=context,
                        initializer=_init_worker,
                        initargs=(table,),
                    )
            suspect_inflight = any(t.suspect for t, _ in inflight.values())
            held = []
            while queue and len(inflight) < workers:
                task = queue.popleft()
                if task.suspect and suspect_inflight:
                    held.append(task)  # quarantine: one suspect at a time
                    continue
                suspect_inflight = suspect_inflight or task.suspect
                with dispatch_span():
                    task.dispatches += 1
                    event(obs.SCHED_DISPATCH, spec=task.index,
                          attempt=task.dispatches, of=len(entries))
                future = pool.submit(_run_entry, (task.index, task.spec))
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                inflight[future] = (task, deadline)
            queue.extendleft(reversed(held))

            wait_for = None if timeout is None else max(0.0, min(
                d for _, d in inflight.values() if d is not None
            ) - time.monotonic())
            done, _ = wait(
                set(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
            )

            broken: List[_Task] = []
            for future in done:
                task, _ = inflight.pop(future)
                outcome = harvest(future, task, broken)
                if outcome is not None:
                    yield emit(outcome)

            if broken:
                # One BrokenProcessPool means every in-flight future is
                # lost — drain them (keeping any that did complete with
                # real results), then attribute the death and respawn.
                for future in list(inflight):
                    task, _ = inflight.pop(future)
                    if future.done():
                        outcome = harvest(future, task, broken)
                        if outcome is not None:
                            yield emit(outcome)
                    else:
                        future.cancel()
                        broken.append(task)
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None

                # Charge the loss to the culprit only.  With one task
                # down the culprit is known; with several, a quarantined
                # suspect (which never shares the pool with another
                # suspect) is the repeat offender and takes the charge.
                suspects = [t for t in broken if t.suspect]
                if len(broken) == 1:
                    culprit: Optional[_Task] = broken[0]
                elif len(suspects) == 1:
                    culprit = suspects[0]
                else:
                    # Unattributable: several first-offense tasks were in
                    # flight.  Nobody is charged — all re-queue as
                    # quarantined suspects, so whichever breaks the pool
                    # again dies alone and takes the next charge.
                    culprit = None
                if culprit is not None:
                    culprit.suspect = True  # quarantine the retry too
                    outcome = settle_loss(culprit, "worker process died")
                    if outcome is not None:
                        yield emit(outcome)
                for task in reversed(broken):
                    if task is culprit:
                        continue
                    if culprit is None:
                        task.suspect = True
                        event(obs.SCHED_RETRY, spec=task.index,
                              failures=task.failures, suspect=True)
                    queue.appendleft(task)
                continue

            if not done and timeout is not None:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, deadline) in inflight.items()
                    if deadline is not None and deadline <= now
                ]
                if not expired:
                    continue
                # A stuck spec can only be reclaimed by killing its
                # worker, which takes the whole pool down; innocent
                # bystanders are re-queued without a charged loss.
                _kill_pool(pool)
                pool = None
                expired_set = set(expired)
                for future in list(inflight):
                    task, _ = inflight.pop(future)
                    future.cancel()
                    if future in expired_set:
                        outcome = timed_out(task)
                        if outcome is not None:
                            yield emit(outcome)
                    else:
                        queue.appendleft(task)
    finally:
        if pool is not None:
            if inflight:
                # Closed early — the caller stopped iterating or raised.
                # Cancelling leaves running specs running, and interpreter
                # exit would wait for them.
                _kill_pool(pool)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
        if bt is not None:
            bt.finalize()


def run_batch(
    specs: Sequence[Any],
    n_jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
    run_options: Optional[RunOptions] = None,
) -> List[RunOutcome]:
    """Execute ``specs`` and return outcomes in submission order.

    The in-order façade over :func:`iter_batch` — identical execution
    and robustness semantics, with the completed outcomes sorted back
    into submission order before returning.
    """
    outcomes = list(
        iter_batch(
            specs,
            n_jobs=n_jobs,
            start_method=start_method,
            run_options=run_options,
        )
    )
    outcomes.sort(key=lambda o: o.index)
    return outcomes
