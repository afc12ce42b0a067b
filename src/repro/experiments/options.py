"""The run/batch settings every experiment driver shares, as one value.

The rule that decides who spells what: **a function that consumes a
setting names it; a function that only forwards settings takes the
value.**  The leaf entry points (``run_experiment``, ``run_single_flow``,
``run_fluid``, ``CcEnv``) build the observers themselves and keep explicit
``audit=`` / ``telemetry=`` / ``sampling=`` / ``profile=`` keywords; every
driver above them — ``run_shootout``, the frontier sweeps, ``run_grid``,
``run_batch`` / ``iter_batch`` — and every picklable spec class takes
``run_options: Optional[RunOptions]`` and hands it down unread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.obs import SamplingPolicy, sampling_spec

__all__ = ["OutcomeCallback", "RunOptions"]

#: Progress hook: called with each ``RunOutcome`` as it completes.
OutcomeCallback = Callable[[Any], None]


@dataclass(frozen=True)
class RunOptions:
    """How a run is observed and how a batch schedules it.

    The first four fields are *per run*: each simulation consumes them,
    and the batch layer stamps them onto every spec it dispatches.  The
    last three are *per batch*: only the scheduler
    (:func:`repro.experiments.parallel.iter_batch`) reads them, and they
    never travel to a worker.

    audit  (CLI ``--audit``; ``None`` → ``REPRO_AUDIT``)
        Attach the :mod:`repro.debug` invariant auditor: on or off; its
        bands are the constants of :mod:`repro.debug.auditor`.
        Observation-only — results are bit-identical either way; a
        violation raises after dumping a flight-recorder trace.  Worker
        processes inherit the environment switch.
    telemetry  (``--telemetry PATH``; ``None`` → ``REPRO_TELEMETRY``)
        Trace target (:mod:`repro.obs`): a JSONL path or
        ``tcp://host:port``.  For a batch this is the *merged* trace:
        each spec writes a worker part file (``<path>.partNNNN.jsonl``),
        the coordinator records ``sched.*`` events and folds the parts
        in, tagged ``"run": <index>``, under one ``scope="batch"``
        metrics record.  Observer-only, like ``audit``.
    sampling  (``--sample SPEC``; ``None`` → ``REPRO_TELEMETRY_SAMPLE``)
        Per-event-kind trace budgets — a
        :class:`~repro.obs.SamplingPolicy` or its spec string
        (``"queue.sample:every=10;*:max=100000"``); drops are counted
        into ``run.telemetry.dropped.*``.  Needs a tracer.
    profile  (``--profile``; ``None`` → ``REPRO_PROFILE``)
        Phase timers (``run.timing.prof.*``; a batch adds
        ``batch.timing.prof.sched.dispatch``).  Needs a tracer.
    timeout  (``--timeout SECONDS``)
        Per-spec wall-clock budget from dispatch.  The overrunning
        spec's pool is torn down (or, serially, the engine's run
        deadline trips) and the spec takes one charged loss.
    retries  (``--retries N``)
        Charged losses (timeout or worker death) a spec may absorb
        before its outcome reports the failure.  Python exceptions
        inside ``execute()`` are deterministic and never retried.
    on_outcome  (the CLI's progress line; ``--no-progress`` clears it)
        Called in the coordinator with each ``RunOutcome`` as it lands —
        progress bars, incremental persistence, early abort by raising.

    Explicit ``sampling`` / ``profile`` with no tracer to serve them
    (argument, ambient, or ``REPRO_TELEMETRY``) is a ``ValueError``
    (:func:`repro.obs.require_tracer`); the environment defaults degrade
    silently instead.
    """

    audit: Optional[bool] = None
    telemetry: Optional[str] = None
    sampling: Union[str, SamplingPolicy, None] = None
    profile: Optional[bool] = None
    timeout: Optional[float] = None
    retries: int = 0
    on_outcome: Optional[OutcomeCallback] = None

    def per_run(self, telemetry: Optional[str]) -> "RunOptions":
        """The part one run consumes, writing its trace to ``telemetry``.

        Always picklable, whatever ``on_outcome`` is: the scheduler
        fields are left behind and ``sampling`` travels as its spec
        string.
        """
        return RunOptions(
            audit=self.audit,
            telemetry=telemetry,
            sampling=sampling_spec(self.sampling),
            profile=self.profile,
        )

