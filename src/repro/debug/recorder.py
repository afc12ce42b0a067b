"""Ring-buffer flight recorder for the invariant auditor.

The recorder keeps the last N engine events and the last N auditor
observations in preallocated rings, and serialises them to a structured
JSON trace when something goes wrong — an invariant violation or an
unhandled exception escaping the event loop.  Traces are written per
process, so parallel batches (``n_jobs > 1``) produce one file per
worker without coordination.

Two rings, for a reason.  Engine events arrive once per simulated event
and are written *inline by the event loop* (see ``Simulator.audit_ring``)
as two list-slot stores and an integer increment — zero allocation and
zero Python calls per event.  An earlier deque-of-tuples design
allocated a tuple per event, and the churn (eviction plus GC pressure
from tuples holding callback references) dominated the auditor's
overhead.  Auditor observations (sender snapshots at sweep cadence) are
far rarer and go through :meth:`record` into a separate ring that also
keeps a ``kind`` tag.  :meth:`snapshot` merges both by timestamp.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
from typing import Any, Dict, List, Optional, Sequence

from repro.util.env import AUDIT_DIR_ENV as TRACE_DIR_ENV, env_flag

#: Default number of entries retained per ring.
DEFAULT_CAPACITY = 512

#: Default dump directory (relative to the working directory).
DEFAULT_TRACE_DIR = "audit-traces"

#: Per-process dump counter, so one worker writing several traces never
#: clobbers its own files.
_DUMP_COUNTER = itertools.count()


class FlightRecorder:
    """Bounded in-memory log of recent simulation observations.

    ``detail`` entries may be any value — live objects (e.g. event
    callbacks) are rendered to a JSON-friendly form only when a trace
    is written.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # Engine-event ring, written inline by the event loop.  Its
        # size is the capacity rounded up to a power of two so the loop
        # can mask instead of dividing.
        self.ring_capacity = 1 << (capacity - 1).bit_length()
        self.ring_times: List[float] = [0.0] * self.ring_capacity
        self.ring_details: List[Any] = [None] * self.ring_capacity
        #: Engine events ever recorded; slot ``count & (ring_capacity-1)``
        #: is the next write.  A one-element list so the event loop can
        #: share it without attribute lookups.
        self.ring_count: List[int] = [0]
        # Auditor-observation ring (:meth:`record`).
        self._times: List[float] = [0.0] * capacity
        self._kinds: List[Optional[str]] = [None] * capacity
        self._details: List[Any] = [None] * capacity
        self._count: List[int] = [0]

    @property
    def recorded(self) -> int:
        """Total observations ever recorded across both rings."""
        return self.ring_count[0] + self._count[0]

    def record(self, time: float, kind: str, detail: Any) -> None:
        """Append one observation, overwriting the oldest when full."""
        count = self._count
        i = count[0] % self.capacity
        self._times[i] = time
        self._kinds[i] = kind
        self._details[i] = detail
        count[0] += 1

    def __len__(self) -> int:
        return min(self.ring_count[0], self.ring_capacity) + min(
            self._count[0], self.capacity
        )

    @staticmethod
    def _render(detail: Any) -> Any:
        if detail is None or isinstance(detail, (str, int, float, bool, dict)):
            return detail
        return getattr(detail, "__qualname__", None) or repr(detail)

    def snapshot(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first, as JSON-ready dicts.

        Engine events and auditor observations are merged by timestamp;
        at equal times engine events sort first (an observation is made
        *after* the event that triggered the sweep).
        """
        engine = []
        total, cap = self.ring_count[0], self.ring_capacity
        for j in range(max(0, total - cap), total):
            i = j & (cap - 1)
            engine.append(
                {
                    "t": self.ring_times[i],
                    "kind": "event",
                    "detail": self._render(self.ring_details[i]),
                }
            )
        recorded = []
        total, cap = self._count[0], self.capacity
        for j in range(max(0, total - cap), total):
            i = j % cap
            recorded.append(
                {
                    "t": self._times[i],
                    "kind": self._kinds[i],
                    "detail": self._render(self._details[i]),
                }
            )
        # Stable sort on the concatenation keeps engine entries ahead of
        # equal-time observations.
        return sorted(engine + recorded, key=lambda e: e["t"])

    def dump(
        self,
        violations: Sequence[Dict[str, Any]] = (),
        context: Optional[Dict[str, Any]] = None,
        path: Optional[str] = None,
    ) -> str:
        """Write the trace as JSON; returns the file path.

        Without an explicit ``path`` the trace goes to
        ``$REPRO_AUDIT_DIR`` (or ``./audit-traces``) as
        ``audit-<pid>-<n>.json`` — distinct per worker process and per
        dump, so parallel batches never collide.
        """
        if path is None:
            directory = pathlib.Path(
                env_flag(TRACE_DIR_ENV) or DEFAULT_TRACE_DIR
            )
            directory.mkdir(parents=True, exist_ok=True)
            name = f"audit-{os.getpid()}-{next(_DUMP_COUNTER)}.json"
            path = str(directory / name)
        payload = {
            "format": "repro.debug.flight-recorder/1",
            "pid": os.getpid(),
            "capacity": self.capacity,
            "recorded_total": self.recorded,
            "context": context or {},
            "violations": list(violations),
            "events": self.snapshot(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=repr)
        # Cross-reference the dump in the telemetry trace so one file
        # tells the whole story of a failed run.
        from repro.obs import AUDIT_DUMP, current_tracer

        tr = current_tracer()
        if tr is not None:
            t = violations[-1]["time"] if violations else 0.0
            tr.emit(AUDIT_DUMP, t, path=path, violations=len(violations))
        return path
