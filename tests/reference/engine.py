"""The reference event loop.

:class:`Simulator` here is the pure-Python engine that
``repro.sim.engine.Simulator`` (a Python class over the C
``repro.sim._core.Engine``) replaced, kept verbatim: same heap entries,
same seq claims, same ``_heapq`` calls, same audit-ring stores and
deadline checks.  tests/test_core_diff.py runs every run shape through
both and asserts identical event sequences.  The one deliberate
difference is the shipped engine's NaN check: every scheduling entry
point there raises ValueError for a NaN time, where this one accepts it
(tests/test_engine.py pins the fix).
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from time import monotonic
from typing import Callable, List, Optional

from repro.sim.engine import _RUN_DEADLINE, Event, RunDeadlineExceeded

#: Events between wall-clock deadline checks.
_DEADLINE_STRIDE = 512


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
