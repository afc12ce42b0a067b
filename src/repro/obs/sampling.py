"""Per-event-kind sampling budgets for long-run telemetry.

A full trace of a long grid sweep or a 1000-flow fluid run is dominated
by periodic records (``queue.sample`` every 10 ms per link,
``fluid.tower`` every 100 ms per tower).  A :class:`SamplingPolicy`
bounds that volume *visibly*: each event kind can be decimated
(every-Nth), time-decimated (at most one record per interval of
simulated time), and hard-capped per run — and every record the policy
rejects is counted per kind, so :func:`repro.obs.tracer.close_scope`
can fold ``run.telemetry.dropped.<kind>`` counters into the metrics
snapshot and truncation is never silent.

Determinism: a policy's decisions depend only on the event stream
itself (arrival order and the simulated ``t`` field), never on wall
clock, so a sampled run is exactly as reproducible as an unsampled one
and the dropped counters are part of the deterministic summary.

Lifecycle kinds (run/batch headers and footers, metrics snapshots,
auditor records) are never sampled — a decimated trace must still be
self-describing for ``repro trace`` and ``repro watch``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

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

__all__ = ["KindBudget", "SamplingPolicy", "PROTECTED_KINDS",
           "resolve_sampling", "sampling_spec"]

#: Kinds a policy never drops: without them a trace loses its run
#: boundaries, link metadata, and the metrics (including the dropped
#: counters themselves).
PROTECTED_KINDS = frozenset({
    META, RUN_START, RUN_END, METRICS, GRID_CELL,
    FLUID_RUN, FLUID_END, AUDIT_VIOLATION, AUDIT_DUMP,
})


class KindBudget:
    """The sampling rules for one event kind (or the default).

    ``every=N`` keeps the 1st of every N records; ``interval=X`` keeps
    at most one record per ``X`` seconds of the event clock (the first
    record of a burst is always kept); ``max=N`` is a hard per-run cap
    on *kept* records.  Rules compose: a record must pass all three.
    """

    __slots__ = ("every", "interval", "max_events", "_seen", "_kept",
                 "_next_t")

    def __init__(self, every: int = 1, interval: float = 0.0,
                 max_events: Optional[int] = None) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if interval < 0:
            raise ValueError("interval must be >= 0")
        if max_events is not None and max_events < 0:
            raise ValueError("max must be >= 0")
        self.every = every
        self.interval = interval
        self.max_events = max_events
        self._seen = 0
        self._kept = 0
        self._next_t = float("-inf")

    def admit(self, t: float) -> bool:
        self._seen += 1
        if (self._seen - 1) % self.every != 0:
            return False
        if self.interval > 0.0 and t < self._next_t:
            return False
        if self.max_events is not None and self._kept >= self.max_events:
            return False
        self._kept += 1
        if self.interval > 0.0:
            self._next_t = t + self.interval
        return True

    def spawn(self) -> "KindBudget":
        """A fresh-state copy with the same rules (per-kind instances)."""
        return KindBudget(self.every, self.interval, self.max_events)

    def describe(self) -> str:
        parts = []
        if self.every > 1:
            parts.append(f"every={self.every}")
        if self.interval > 0.0:
            parts.append(f"interval={self.interval:g}")
        if self.max_events is not None:
            parts.append(f"max={self.max_events}")
        return ",".join(parts) or "all"


class SamplingPolicy:
    """Per-kind admission control with exact dropped-record accounting.

    ``rules`` maps an event kind to its :class:`KindBudget`; the ``"*"``
    key (or ``default=``) budgets every non-protected kind without an
    explicit rule.  Kinds in :data:`PROTECTED_KINDS` are always
    admitted.

    ``admit(kind, t)`` is the hot-path call: it returns whether the
    record should be written and counts the drop otherwise.
    ``drain_dropped()`` returns and resets the per-kind drop counts, so
    a policy reused across runs still yields per-run deltas.
    """

    def __init__(self, rules: Optional[Dict[str, KindBudget]] = None,
                 default: Optional[KindBudget] = None,
                 spec: str = "") -> None:
        rules = dict(rules or {})
        star = rules.pop("*", None)
        self._default = default if default is not None else star
        self._rules: Dict[str, KindBudget] = rules
        self._budgets: Dict[str, KindBudget] = {}
        self.dropped: Dict[str, int] = {}
        #: The spec string this policy was parsed from ("" if built
        #: programmatically); lets batch layers ship the policy to
        #: workers as a plain string.
        self.spec = spec

    def _budget_for(self, kind: str) -> Optional[KindBudget]:
        budget = self._budgets.get(kind)
        if budget is None:
            template = self._rules.get(kind)
            if template is None:
                if kind in PROTECTED_KINDS or self._default is None:
                    return None
                template = self._default
            budget = template.spawn()
            self._budgets[kind] = budget
        return budget

    def admit(self, kind: str, t: float) -> bool:
        budget = self._budget_for(kind)
        if budget is None:
            return True
        if budget.admit(t):
            return True
        self.dropped[kind] = self.dropped.get(kind, 0) + 1
        return False

    def drain_dropped(self) -> Dict[str, int]:
        """Per-kind drop counts since the last drain (reset on read)."""
        out = self.dropped
        self.dropped = {}
        return out

    def describe(self) -> str:
        items: List[str] = []
        for kind in sorted(self._rules):
            items.append(f"{kind}:{self._rules[kind].describe()}")
        if self._default is not None:
            items.append(f"*:{self._default.describe()}")
        return ";".join(items)

    @classmethod
    def parse(cls, spec: str) -> "SamplingPolicy":
        """Build a policy from a CLI spec string.

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
            kwargs: Dict[str, Union[int, float]] = {}
            for rule in body.split(","):
                rule = rule.strip()
                if not rule:
                    continue
                if "=" not in rule:
                    kwargs["every"] = int(rule)
                    continue
                key, _, value = rule.partition("=")
                key = key.strip()
                if key == "every":
                    kwargs["every"] = int(value)
                elif key == "interval":
                    kwargs["interval"] = float(value)
                elif key == "max":
                    kwargs["max_events"] = int(value)
                else:
                    raise ValueError(
                        f"bad sampling rule {rule!r}: use every=, "
                        f"interval=, or max="
                    )
            if not kwargs:
                raise ValueError(f"empty sampling rules for kind {kind!r}")
            rules[kind] = KindBudget(**kwargs)
        return cls(rules, spec=spec)


def resolve_sampling(
    sampling: Union[str, SamplingPolicy, None],
) -> Optional[SamplingPolicy]:
    """A :class:`SamplingPolicy` from a policy, spec string, or None."""
    if sampling is None or sampling == "":
        return None
    if isinstance(sampling, SamplingPolicy):
        return sampling
    return SamplingPolicy.parse(str(sampling))


def sampling_spec(sampling: Union[str, SamplingPolicy, None]) -> Optional[str]:
    """The portable string form of a sampling argument (for specs)."""
    if sampling is None or sampling == "":
        return None
    if isinstance(sampling, SamplingPolicy):
        return sampling.spec or sampling.describe()
    return str(sampling)
