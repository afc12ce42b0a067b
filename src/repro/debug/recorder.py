"""Ring-buffer flight recorder for the invariant auditor.

The recorder keeps the last :data:`CAPACITY` entries of one ring and,
when something goes wrong — an invariant violation or an unhandled
exception escaping the event loop — writes them out as an ordinary
``repro.obs`` JSONL trace, which ``repro trace`` reads like any other.
Dumps are named per process, so parallel batches (``n_jobs > 1``)
produce one file per worker without coordination.

The ring is written *inline by the event loop* (see
``Simulator.audit_ring``): after each callback returns, the loop stores
its time and callback into the next slot and bumps the count — zero
allocation and no Python call per event.  The auditor's sender
snapshots (:meth:`FlightRecorder.record`, at sweep cadence) take the
next slot of the same ring.  A sweep runs after the stamp of the event
that triggered it, so the ring is in time order as written.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import AUDIT_DUMP, AUDIT_EVENT, JsonlSink, current_tracer
from repro.util.env import AUDIT_DIR_ENV as TRACE_DIR_ENV, env_flag

#: Ring slots; a power of two, so the event loop masks instead of
#: dividing.
CAPACITY = 512

#: Default dump directory (relative to the working directory).
DEFAULT_TRACE_DIR = "audit-traces"

#: Per-process dump counter, so one worker writing several traces never
#: clobbers its own files.
_DUMP_COUNTER = itertools.count()


def _render(callback: Any) -> str:
    """A callback by name.  A partial's ``repr`` embeds memory
    addresses, so it is named by its function and its arguments."""
    if isinstance(callback, functools.partial):
        args = [repr(a) for a in callback.args]
        args += [f"{k}={v!r}" for k, v in callback.keywords.items()]
        return f"{_render(callback.func)}({', '.join(args)})"
    return getattr(callback, "__qualname__", None) or repr(callback)


class FlightRecorder:
    """The last :data:`CAPACITY` engine events and sender snapshots."""

    def __init__(self) -> None:
        self.ring_times: List[float] = [0.0] * CAPACITY
        #: Per slot: the callback of an engine event, or a prebuilt
        #: ``audit.sender`` record.
        self.ring_details: List[Any] = [None] * CAPACITY
        #: Entries ever written; slot ``count & (CAPACITY - 1)`` is the
        #: next.  A one-element list so the event loop can share it
        #: without attribute lookups.
        self.ring_count: List[int] = [0]

    def record(self, rec: Dict[str, Any]) -> None:
        """Write a trace record into the next slot of the ring."""
        count = self.ring_count
        n = count[0]
        i = n & (CAPACITY - 1)
        self.ring_times[i] = rec["t"]
        self.ring_details[i] = rec
        count[0] = n + 1

    def snapshot(self) -> List[Dict[str, Any]]:
        """The retained entries, oldest first, as trace records."""
        out = []
        total = self.ring_count[0]
        for j in range(max(0, total - CAPACITY), total):
            i = j & (CAPACITY - 1)
            detail = self.ring_details[i]
            if not isinstance(detail, dict):
                detail = {"t": self.ring_times[i], "kind": AUDIT_EVENT,
                          "callback": _render(detail)}
            out.append(detail)
        return out

    def dump(
        self,
        now: float,
        violations: Sequence[Dict[str, Any]] = (),
        sweeps: int = 0,
        exception: Optional[str] = None,
        path: Optional[str] = None,
    ) -> str:
        """Write the ring and ``violations`` as a trace; returns its path.

        The trace is the sink's ``meta`` header, the ring oldest first,
        the ``audit.violation`` records, then one ``audit.dump`` record
        stamped ``now``.  Without an explicit ``path`` it goes to
        ``$REPRO_AUDIT_DIR`` (or ``./audit-traces``) as
        ``audit-<pid>-<n>.jsonl`` — distinct per worker process and per
        dump, so parallel batches never collide.
        """
        if path is None:
            directory = env_flag(TRACE_DIR_ENV) or DEFAULT_TRACE_DIR
            name = f"audit-{os.getpid()}-{next(_DUMP_COUNTER)}.jsonl"
            path = os.path.join(directory, name)
        closing: Dict[str, Any] = {
            "t": now, "kind": AUDIT_DUMP, "path": path,
            "violations": len(violations), "recorded": self.ring_count[0],
            "sweeps": sweeps,
        }
        if exception is not None:
            closing["exception"] = exception
        sink = JsonlSink(path)
        try:
            for rec in self.snapshot():
                sink.write(rec)
            for rec in violations:
                sink.write(rec)
            sink.write(closing)
        finally:
            sink.close()
        # The same record cross-references the dump in the telemetry
        # trace, so one file tells the whole story of a failed run.
        tr = current_tracer()
        if tr is not None:
            tr.emit(**closing)
        return path
