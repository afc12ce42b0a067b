"""Discrete-event simulation engine.

The engine is a classic calendar-queue event loop: callbacks are scheduled
at absolute simulated times and executed in time order.  Ties are broken by
insertion order so that runs are fully deterministic, which the whole
evaluation relies on (every benchmark is seeded and repeatable).

The engine knows nothing about networking; links, queues and TCP endpoints
are built on top of it.

Hot-path notes
--------------
The scheduling entry points and the loop itself are C: :class:`Simulator`
is a Python class over ``repro.sim._core.Engine``, built from
``_core.c`` on first import of :mod:`repro.sim` (DESIGN.md, "The packet
core in C"; the frozen Python engine it must equal is
``tests/reference/engine.py``).
:class:`Event` is its own heap entry: a 3-slot list ``[time, seq,
callback]``, which ``heapq`` orders by list comparison (time, then the
unique seq — the callback element is never reached).  Cancellation is
lazy — the callback slot is set to None and the entry is skipped when
popped — and the heap is compacted when dead entries outnumber live
ones, so timer churn (RTO re-arming on every ACK) cannot bloat the
queue.  Periodic timers re-arm by reusing their just-popped entry
(:meth:`Simulator.reschedule`), avoiding one allocation per tick.
"""

from __future__ import annotations

from heapq import heappop
from typing import Callable, List, Optional

from repro.sim import _core  # built and registered by repro.sim


class RunDeadlineExceeded(RuntimeError):
    """A :meth:`Simulator.run` call overran its wall-clock deadline.

    Raised between event batches when an ambient deadline installed with
    :func:`set_run_deadline` has passed.  The batch layer's in-process
    executor uses this to enforce per-spec timeouts, where there is no
    worker to kill (:mod:`repro.experiments.parallel`).
    """


#: Ambient wall-clock deadline (``time.monotonic`` seconds) honoured by
#: every :meth:`Simulator.run` call, or None.  A single mutable cell so
#: the event loop reads it once per run, then checks the clock every 512
#: events: invisible next to the callbacks, and it bounds overshoot to
#: milliseconds of wall time at realistic event rates.
_RUN_DEADLINE: List[Optional[float]] = [None]


def set_run_deadline(deadline: Optional[float]) -> None:
    """Install (or clear, with None) the ambient run deadline.

    ``deadline`` is an absolute ``time.monotonic()`` instant.  While set,
    any :meth:`Simulator.run` raises :class:`RunDeadlineExceeded` from
    the first inter-event check past the deadline.  Callers must clear
    the deadline (pass None) when their scope ends.
    """
    _RUN_DEADLINE[0] = deadline


class Event(list):
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be cancelled
    with :meth:`cancel`.  Cancellation is lazy: the entry stays in the heap
    and is skipped when popped, which is O(1) and adequate for the timer
    churn TCP retransmission produces.

    The event *is* its heap entry — ``[time, seq, callback]`` — so the
    heap compares entries without entering Python code.  ``time``/``seq``/
    ``callback``/``cancelled`` remain available as read-only attributes.
    """

    __slots__ = ()

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        super().__init__((time, seq, callback))

    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def callback(self) -> Optional[Callable[[], None]]:
        return self[2]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self[2] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self[2] is None else ""
        return f"<Event t={self[0]:.6f}{state}>"


_core.configure(event=Event, deadline_cell=_RUN_DEADLINE,
                deadline_error=RunDeadlineExceeded)


class Simulator(_core.Engine):
    """Deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(0.5, lambda: print(sim.now))
        sim.run(until=10.0)

    Time is a float in seconds.  The simulator guarantees that callbacks
    run in nondecreasing time order, and that two callbacks scheduled for
    the same instant run in the order they were scheduled.  Every
    scheduling entry point (``schedule``, ``schedule_at``,
    ``schedule_claimed``, ``reschedule``, ``reschedule_at``,
    ``requeue_claimed``) raises :class:`ValueError` for a time before
    ``now`` or a NaN time.

    The scheduling API, :meth:`run` and :meth:`horizon_excluding` are
    the C base's.  Its attributes:

    ``now``
        The current simulated time.
    ``run_until``
        The ``until`` bound of the :meth:`run` call executing (None
        outside ``run`` or for an unbounded run).  Batch-serving links
        consult it so they never act past the horizon a scalar event
        loop would have stopped at.
    ``compactions``
        Lazily-cancelled-entry sweeps actually performed (telemetry).
    ``audit_ring``
        The auditor's inline event-trace ring (:mod:`repro.debug`):
        ``(times, details, count_cell, mask, countdown_cell, stride,
        sweep)``.  After each callback the loop stores ``(now,
        callback)`` into slot ``count & mask`` and bumps
        ``count_cell[0]`` — no Python call on the per-event path.
        ``countdown_cell[0]`` counts down from ``stride``; at zero it
        is reset and ``sweep()`` is called, which must not mutate
        simulation state.  Attach before calling :meth:`run`; the loop
        reads it once.
    """

    def step(self) -> bool:
        """Run the single next pending event.  Returns False if none."""
        heap = self._heap
        while heap:
            event = heappop(heap)
            callback = event[2]
            if callback is None:
                continue
            now = event[0]
            self.now = now
            self._events_processed += 1
            callback()
            ring = self.audit_ring
            if ring is not None:
                ring_t, ring_cb, ring_n, ring_mask, countdown, stride, sweep = ring
                n = ring_n[0]
                i = n & ring_mask
                ring_t[i] = now
                ring_cb[i] = callback
                ring_n[0] = n + 1
                c = countdown[0] - 1
                if c:
                    countdown[0] = c
                else:
                    countdown[0] = stride
                    sweep()
            return True
        return False

    def close(self) -> None:
        """Drop every pending event and the audit ring (run end).

        Pending callbacks are bound methods of the links, senders and
        timers built on this simulator, which hold it in turn; an owner
        that keeps its pending :class:`Event` closes a second loop.
        Cancelling each entry and emptying the heap cuts both, so a
        finished run is freed by reference counting.  The clock and the
        counters stay readable.
        """
        for event in self._heap:
            event[2] = None
        self._heap.clear()
        self.audit_ring = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of queued, not-yet-cancelled events."""
        return sum(1 for e in self._heap if e[2] is not None)

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far."""
        return self._events_processed


class PeriodicTimer:
    """A repeating timer built on :class:`Simulator`.

    Used for the sender's pacing tick (the kernel-tick analogue).  The
    callback receives no arguments; cancel with :meth:`stop`.  The timer
    re-arms itself *before* invoking the callback so the callback may
    safely call :meth:`stop`.  Re-arming reuses the fired heap entry
    (:meth:`Simulator.reschedule`), so a steady timer allocates nothing
    per tick.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        start_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self._event: Optional[Event] = None
        self._stopped = False
        first = interval if start_delay is None else start_delay
        self._event = sim.schedule(first, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        # The firing event was just popped; reuse it for the next tick.
        self._event = self.sim.reschedule(self._event, self.interval)
        self.callback()

    def stop(self) -> None:
        """Stop the timer.  Idempotent."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def running(self) -> bool:
        return not self._stopped
