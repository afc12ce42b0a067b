"""Per-event-kind sampling budgets for long-run telemetry.

A full trace of a long grid sweep or a 1000-flow fluid run is dominated
by periodic records (``queue.sample`` every 10 ms per link,
``fluid.tower`` every 100 ms per tower).  A :class:`SamplingPolicy`,
parsed from a spec string, bounds that volume *visibly*: each event
kind can be decimated (every-Nth), time-decimated (at most one record
per interval of simulated time), and hard-capped per run — and every
record a budget rejects is counted per kind, so
:func:`repro.obs.tracer.close_scope` can fold
``run.telemetry.dropped.<kind>`` counters into the metrics snapshot and
truncation is never silent.

An event kind's records are decided in ``Tracer.emit`` by
:meth:`KindBudget.admit`, which counts the kind's whole stream.  A
periodic source (each link's queue sampler, each fluid tower) reads its
kind's budget once and thins itself: it writes every
:meth:`KindBudget.stride`-th tick of its own clock, so both links stay
in a sampled trace.

Determinism: a budget's decisions depend only on the event stream
itself (arrival order and the simulated ``t`` field), never on wall
clock, so a sampled run is exactly as reproducible as an unsampled one
and the dropped counters are part of the deterministic summary.

Lifecycle kinds (run/batch headers and footers, metrics snapshots,
auditor records) are never sampled by the ``*`` default — a decimated
trace must still be self-describing for ``repro trace`` and
``repro watch``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Union

from repro.obs.events import (
    AUDIT_DUMP,
    AUDIT_VIOLATION,
    FLUID_END,
    FLUID_RUN,
    GRID_CELL,
    META,
    METRICS,
    RUN_END,
    RUN_START,
)

__all__ = ["KindBudget", "SamplingPolicy", "PROTECTED_KINDS"]

#: Kinds the ``*`` default never drops: without them a trace loses its
#: run boundaries, link metadata, and the metrics (including the
#: dropped counters themselves).
PROTECTED_KINDS = frozenset({
    META, RUN_START, RUN_END, METRICS, GRID_CELL,
    FLUID_RUN, FLUID_END, AUDIT_VIOLATION, AUDIT_DUMP,
})


#: Spec rule name -> :class:`KindBudget` keyword.
_RULE_KEYWORDS = {"every": "every", "interval": "interval", "max": "max_events"}


class KindBudget:
    """The sampling rules for one event kind, and its live counts.

    ``every=N`` keeps the 1st of every N records; ``interval=X`` keeps
    at most one record per ``X`` seconds of the event clock (the first
    record of a burst is always kept); ``max=N`` is a hard per-run cap
    on *kept* records.  Rules compose: a record must pass all three.
    ``kept`` and ``dropped`` count the kind's records; ``dropped`` is
    drained by :meth:`SamplingPolicy.drain_dropped`.
    """

    __slots__ = ("every", "interval", "max_events", "kept", "dropped",
                 "_seen", "_next_t")

    def __init__(self, every: int = 1, interval: float = 0.0,
                 max_events: Optional[int] = None) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if not interval >= 0:  # also rejects NaN
            raise ValueError("interval must be >= 0")
        if max_events is not None and max_events < 0:
            raise ValueError("max must be >= 0")
        self.every = every
        self.interval = interval
        self.max_events = max_events
        self.kept = 0
        self.dropped = 0
        self._seen = 0
        self._next_t = float("-inf")

    def admit(self, t: float) -> bool:
        """Decide one event-kind record at time ``t``, counting a drop."""
        seen = self._seen
        self._seen = seen + 1
        if (seen % self.every == 0
                and (self.interval <= 0.0 or t >= self._next_t)
                and (self.max_events is None
                     or self.kept < self.max_events)):
            self.kept += 1
            if self.interval > 0.0:
                self._next_t = t + self.interval
            return True
        self.dropped += 1
        return False

    def stride(self, period: float) -> int:
        """Ticks between the records a periodic source writes.

        The smallest multiple of ``every`` whose span, at one tick per
        ``period`` seconds, is at least ``interval`` (the tolerance
        absorbs the rounding of e.g. ``0.05 / 0.01``).
        """
        spans = 1
        if self.interval > 0.0:
            spans = max(1, math.ceil(
                self.interval / (self.every * period) - 1e-9))
        return self.every * spans

    def keep(self) -> bool:
        """A periodic source's stride tick: kept unless ``max`` is
        reached, in which case it counts as dropped."""
        if self.max_events is not None and self.kept >= self.max_events:
            self.dropped += 1
            return False
        self.kept += 1
        return True


class SamplingPolicy(Dict[str, Optional[KindBudget]]):
    """Event kind -> its live :class:`KindBudget` (``None``: unsampled).

    The explicit rules of a spec are the live budgets of their kinds.
    A kind without one is looked up once: it gets a fresh copy of the
    ``*`` default, or ``None`` when there is no default or the kind is
    in :data:`PROTECTED_KINDS`.  ``drain_dropped()`` returns and resets
    the per-kind drop counts, so a policy reused across runs still
    yields per-run deltas.
    """

    def __init__(self, rules: Dict[str, KindBudget],
                 default: Optional[KindBudget] = None) -> None:
        super().__init__(rules)
        self.default = default

    def __missing__(self, kind: str) -> Optional[KindBudget]:
        default = self.default
        budget = (None if kind in PROTECTED_KINDS or default is None else
                  KindBudget(default.every, default.interval,
                             default.max_events))
        self[kind] = budget
        return budget

    def drain_dropped(self) -> Dict[str, int]:
        """Per-kind drop counts since the last drain (reset on read)."""
        out = {}
        for kind, budget in self.items():
            if budget is not None and budget.dropped:
                out[kind] = budget.dropped
                budget.dropped = 0
        return out

    @classmethod
    def parse(cls, spec: str) -> "SamplingPolicy":
        """Build a policy from a spec string.

        Grammar: items separated by ``;``, each ``<kind>:<rule>[,<rule>…]``
        with rules ``every=N``, ``interval=SECONDS``, ``max=N``.  The
        kind ``*`` sets the default budget for unlisted kinds.  A bare
        integer rule is shorthand for ``every=N``::

            queue.sample:every=10;fluid.tower:interval=0.5;*:max=200000
            queue.sample:4
        """
        rules: Dict[str, KindBudget] = {}
        for item in spec.split(";"):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise ValueError(
                    f"bad sampling item {item!r}: expected kind:rule[,rule...]"
                )
            kind, _, body = item.partition(":")
            kind = kind.strip()
            if kind in rules:
                raise ValueError(
                    f"bad sampling item {item!r}: kind {kind!r} given twice"
                )
            kwargs: Dict[str, Union[int, float]] = {}
            try:
                for rule in body.split(","):
                    rule = rule.strip()
                    if not rule:
                        continue
                    key, sep, value = rule.partition("=")
                    key = key.strip() if sep else "every"
                    if key not in _RULE_KEYWORDS:
                        raise ValueError(f"bad sampling rule {rule!r}: use "
                                         "every=, interval=, or max=")
                    number = float if key == "interval" else int
                    kwargs[_RULE_KEYWORDS[key]] = number(value if sep else rule)
                if not kwargs:
                    raise ValueError("empty sampling rules")
                rules[kind] = KindBudget(**kwargs)
            except ValueError as err:
                raise ValueError(f"bad sampling item {item!r}: {err}") from None
        default = rules.pop("*", None)
        return cls(rules, default)
