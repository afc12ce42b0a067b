"""Content-keyed trace references and a per-process materialization cache.

The parallel experiment layer (:mod:`repro.experiments.parallel`) ships
*references* to traces across process boundaries instead of the traces
themselves, and each worker materializes every distinct trace exactly
once, however many runs in the batch use it:

* :class:`SpecTraceRef` — a seeded :class:`~repro.traces.generator.
  TraceSpec`.  Generation is deterministic, so the few dataclass fields
  are a complete stand-in for the opportunity array; workers regenerate
  the identical trace locally.  Every preset in
  :mod:`repro.traces.presets` resolves to one of these.
* :class:`DataTraceRef` — the raw opportunity array, for traces with no
  generation recipe (loaded from a Cellsim file, sliced, or scaled).
  Bulky to pickle, but the batch dispatcher deduplicates by content key
  so each distinct payload crosses the boundary once.

Both carry a **content key** (a digest of the generating spec or of the
raw samples), so two references to the same data — however constructed —
share one cache slot.  :func:`get` is the per-process memo; it is what
both the serial and the parallel execution paths use, which is how the
two paths end up simulating bit-identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from repro.traces.generator import TraceSpec, generate_cellular_trace
from repro.traces.trace import Trace

__all__ = [
    "TraceRef",
    "SpecTraceRef",
    "DataTraceRef",
    "as_ref",
    "get",
    "cache_len",
    "clear_cache",
]


@dataclass(frozen=True)
class SpecTraceRef:
    """A trace identified by its (deterministic) generation recipe."""

    spec: TraceSpec

    @property
    def key(self) -> str:
        digest = hashlib.sha1(repr(self.spec).encode()).hexdigest()
        return f"spec:{digest}"

    def materialize(self) -> Trace:
        return generate_cellular_trace(self.spec)


@dataclass(frozen=True)
class DataTraceRef:
    """A trace carried by value: the raw opportunity times themselves."""

    payload: bytes          # float64 opportunity times, C order
    duration: float
    name: str = "trace"

    @property
    def key(self) -> str:
        digest = hashlib.sha1(self.payload).hexdigest()
        return f"data:{digest}:{self.duration!r}"

    def materialize(self) -> Trace:
        times = np.frombuffer(self.payload, dtype=np.float64)
        return Trace(times, self.duration, name=self.name)


TraceRef = Union[SpecTraceRef, DataTraceRef]


def as_ref(source: Union[Trace, TraceSpec, TraceRef]) -> TraceRef:
    """Coerce a trace, spec, or existing reference into a reference.

    A :class:`Trace` produced by the generator remembers its spec
    (``source_spec``) and becomes a compact :class:`SpecTraceRef`; any
    other trace is carried by value.
    """
    if isinstance(source, (SpecTraceRef, DataTraceRef)):
        return source
    if isinstance(source, TraceSpec):
        return SpecTraceRef(source)
    if isinstance(source, Trace):
        if source.source_spec is not None:
            return SpecTraceRef(source.source_spec)
        payload = np.ascontiguousarray(
            source.opportunity_times, dtype=np.float64
        ).tobytes()
        return DataTraceRef(payload, source.duration, name=source.name)
    raise TypeError(f"cannot reference a {type(source).__name__}")


#: Per-process materialized traces, by content key.
_CACHE: Dict[str, Trace] = {}


def get(source: Union[Trace, TraceSpec, TraceRef]) -> Trace:
    """Materialize (once per process) the trace a reference points to."""
    ref = as_ref(source)
    key = ref.key
    trace = _CACHE.get(key)
    if trace is None:
        trace = ref.materialize()
        _CACHE[key] = trace
    return trace


def cache_len() -> int:
    """Number of distinct traces materialized in this process."""
    return len(_CACHE)


def clear_cache() -> None:
    """Drop all materialized traces (tests and memory-pressure relief)."""
    _CACHE.clear()
