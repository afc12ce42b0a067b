"""Discrete-event simulation engine.

The engine is a classic calendar-queue event loop: callbacks are scheduled
at absolute simulated times and executed in time order.  Ties are broken by
insertion order so that runs are fully deterministic, which the whole
evaluation relies on (every benchmark is seeded and repeatable).

The engine knows nothing about networking; links, queues and TCP endpoints
are built on top of it.

Hot-path notes
--------------
Scheduling dominates the simulator's wall time, so :class:`Event` is its
own heap entry: a 3-slot list ``[time, seq, callback]``.  ``heapq`` then
orders entries with C-level list comparison (time, then the unique seq —
the callback element is never reached), eliminating a Python ``__lt__``
call per comparison.  Cancellation is lazy — the callback slot is set to
None and the entry is skipped when popped — and the heap is compacted
when dead entries outnumber live ones, so timer churn (RTO re-arming on
every ACK) cannot bloat the queue.  Periodic timers re-arm by reusing
their just-popped entry (:meth:`Simulator.reschedule`), avoiding one
allocation per tick.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from time import monotonic
from typing import Callable, List, Optional


class RunDeadlineExceeded(RuntimeError):
    """A :meth:`Simulator.run` call overran its wall-clock deadline.

    Raised between event batches when an ambient deadline installed with
    :func:`set_run_deadline` has passed.  The batch layer's in-process
    executor uses this to enforce per-spec timeouts, where there is no
    worker to kill (:mod:`repro.experiments.parallel`).
    """


#: Ambient wall-clock deadline (``time.monotonic`` seconds) honoured by
#: every :meth:`Simulator.run` call, or None.  A single mutable cell so
#: the event loop reads it once per run and per check, not per event.
_RUN_DEADLINE: List[Optional[float]] = [None]

#: Events between wall-clock deadline checks.  Coarse enough that the
#: check (one ``monotonic()`` call) is invisible next to the event
#: callbacks it interleaves with, fine enough to bound overshoot to
#: milliseconds of wall time at realistic event rates.
_DEADLINE_STRIDE = 512


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


#: Heap size below which compaction is never attempted.
_COMPACT_MIN = 1024


class Simulator:
    """Deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(0.5, lambda: print(sim.now))
        sim.run(until=10.0)

    Time is a float in seconds.  The simulator guarantees that callbacks
    run in nondecreasing time order, and that two callbacks scheduled for
    the same instant run in the order they were scheduled.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._running = False
        #: The ``until`` bound of the :meth:`run` call currently executing
        #: (None outside ``run`` or for an unbounded run).  Batch-serving
        #: links consult it so they never act past the horizon a scalar
        #: event loop would have stopped at.
        self.run_until: Optional[float] = None
        self._events_processed = 0
        self._compact_at = _COMPACT_MIN
        #: Lazily-cancelled-entry sweeps actually performed (telemetry).
        self.compactions = 0
        #: The auditor's inline event-trace ring (:mod:`repro.debug`):
        #: ``(times, details, count_cell, mask, countdown_cell, stride,
        #: sweep)``.  After each callback the loop stores
        #: ``(now, callback)`` into slot ``count & mask`` and bumps
        #: ``count_cell[0]`` — plain list-slot stores, no Python call on
        #: the per-event path.  ``countdown_cell[0]`` counts down from
        #: ``stride``; at zero it is reset and ``sweep()`` is called,
        #: which must not mutate simulation state.  Attach before
        #: calling :meth:`run`; the loop reads it once.
        self.audit_ring: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Negative delays are clamped to zero (run "immediately", after any
        already-pending events at the current time).
        """
        if delay < 0:
            delay = 0.0
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now={self.now}"
            )
        event = Event(time, next(self._counter), callback)
        heap = self._heap
        heappush(heap, event)
        if len(heap) >= self._compact_at:
            self._compact()
        return event

    def reschedule(self, event: Event, delay: float) -> Event:
        """Re-arm a just-popped event ``delay`` seconds from now.

        Fast path for periodic timers: the caller must guarantee ``event``
        is *not* currently in the heap (its callback is the one running).
        The entry is reused in place — no allocation — with a fresh
        insertion-order seq, so the semantics are identical to cancelling
        and scheduling anew.
        """
        if delay < 0:
            delay = 0.0
        event[0] = self.now + delay
        event[1] = next(self._counter)
        heappush(self._heap, event)
        return event

    def claim_seq(self) -> int:
        """Allocate an insertion-order seq *now* for a later push.

        A batch-serving link folds several logical schedule points into
        one callback; claiming the seq at the logical point and pushing
        the heap entry later keeps tie-breaking identical to a link
        that creates each delivery event at its serve instant.  Claimed
        seqs come from the same counter, so uniqueness and monotonicity
        are preserved.
        """
        return next(self._counter)

    def schedule_claimed(
        self, time: float, seq: int, callback: Callable[[], None]
    ) -> Event:
        """Schedule at an absolute time with a previously claimed seq."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now={self.now}"
            )
        event = Event(time, seq, callback)
        heap = self._heap
        heappush(heap, event)
        if len(heap) >= self._compact_at:
            self._compact()
        return event

    def requeue_claimed(self, event: Event, time: float, seq: int) -> Event:
        """Re-arm a just-popped event with a previously claimed seq."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now={self.now}"
            )
        event[0] = time
        event[1] = seq
        heappush(self._heap, event)
        return event

    def reschedule_at(self, event: Event, time: float) -> Event:
        """Re-arm a just-popped event at an absolute time.

        Same contract as :meth:`reschedule`: ``event`` must not be in the
        heap.  Used by links whose service events re-arm themselves at
        exact trace instants — the entry is reused with a fresh seq, so
        ordering is identical to ``schedule_at`` without the allocation.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now={self.now}"
            )
        event[0] = time
        event[1] = next(self._counter)
        heappush(self._heap, event)
        return event

    def _compact(self) -> None:
        """Drop lazily-cancelled entries when they dominate the heap.

        Runs at most every time the heap doubles past the last threshold,
        so the O(n) scan is amortized O(1) per scheduled event.
        """
        heap = self._heap
        live = [e for e in heap if e[2] is not None]
        if 2 * len(live) <= len(heap):
            # In-place so references held by a running ``run`` stay valid.
            heap[:] = live
            heapify(heap)
            self.compactions += 1
        self._compact_at = max(_COMPACT_MIN, 2 * len(heap))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or simulated ``until`` passes.

        When ``until`` is given, events with ``time > until`` stay queued
        and ``now`` is advanced to exactly ``until`` on return, so that
        consecutive ``run`` calls compose.
        """
        self._running = True
        self.run_until = until
        heap = self._heap
        ring = self.audit_ring
        deadline = _RUN_DEADLINE[0]
        ticks = _DEADLINE_STRIDE
        processed = 0
        try:
            if ring is None:
                # Lean loop for the common unaudited run: same semantics
                # as below minus the per-event ring stores.
                while heap:
                    event = heap[0]
                    if until is not None and event[0] > until:
                        break
                    heappop(heap)
                    callback = event[2]
                    if callback is None:
                        continue
                    self.now = event[0]
                    processed += 1
                    callback()
                    if deadline is not None:
                        ticks -= 1
                        if ticks == 0:
                            ticks = _DEADLINE_STRIDE
                            if monotonic() >= deadline:
                                raise RunDeadlineExceeded(
                                    f"run overran its wall-clock deadline "
                                    f"at t={self.now:.6f}"
                                )
                if until is not None and until > self.now:
                    self.now = until
                return
            ring_t, ring_cb, ring_n, ring_mask, countdown, stride, sweep = ring
            while heap:
                event = heap[0]
                if until is not None and event[0] > until:
                    break
                heappop(heap)
                callback = event[2]
                if callback is None:
                    continue
                now = event[0]
                self.now = now
                processed += 1
                callback()
                if deadline is not None:
                    ticks -= 1
                    if ticks == 0:
                        ticks = _DEADLINE_STRIDE
                        if monotonic() >= deadline:
                            raise RunDeadlineExceeded(
                                f"run overran its wall-clock deadline "
                                f"at t={self.now:.6f}"
                            )
                # NOTE: record `now`/`callback` locals, not event[0]/
                # event[2] — the callback may have rescheduled its own
                # entry (reuse mutates the slots in place).
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
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._events_processed += processed
            self._running = False
            self.run_until = None

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

    def horizon_excluding(self, exclude: Optional[Event]) -> float:
        """A lower bound on the time of the next event other than ``exclude``.

        The quiescence probe for batch-serving links: "how far may I act
        before anything *foreign* can run?".  ``exclude`` is the caller's
        own pending event (its delivery pump), which must not bound its
        own batch.  Returns ``inf`` when nothing else is queued.

        When the heap head *is* the excluded event, the minimum of its two
        children is returned instead.  By the heap property every other
        entry lives in one of those subtrees, so the child minimum is a
        valid — possibly conservative — lower bound even when children are
        lazily-cancelled entries (a dead entry's time still bounds its
        subtree from below).  Conservative is safe: the caller batches
        strictly *before* the returned time.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2] is None:
                heappop(heap)
                continue
            if head is not exclude:
                return head[0]
            n = len(heap)
            if n == 1:
                return float("inf")
            bound = heap[1][0]
            if n > 2 and heap[2][0] < bound:
                bound = heap[2][0]
            return bound
        return float("inf")


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
