"""Benchmark-side span recorder: times the program's layers from outside.

``Recorder.install()`` replaces, inside this process only, the public
callables on the layer boundaries with timing wrappers and hands every
callback given to the event loop through one; ``uninstall()`` puts the
originals back.  Targets are resolved by name at install time and any
that no longer exist are skipped and listed in ``missing``, so a later
refactor of the program (one delivery path, a unified observer) leaves
the benchmark running with that layer's metric reported as ``null``.

A span is ``(layer, name, start, end, parent, op_id)``.  Spans are
aggregated per ``(layer, name)`` as they close — call count, inclusive
seconds, self seconds (inclusive minus the part child spans cover) — and
the first ``raw_limit`` spans of each op are also kept raw.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import weakref
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: module of a callable's owner -> layer.  Longest prefix wins; modules
#: not listed fall under their name without the ``repro.`` prefix.
LAYER_OF_MODULE = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.link": "sim.link",
    "repro.sim.network": "sim.link",
    "repro.sim.queues": "sim.queues",
    "repro.tcp.sender": "tcp.sender",
    "repro.tcp.rto": "tcp.sender",
    "repro.tcp.receiver": "tcp.receiver",
    "repro.tcp.scoreboard": "tcp.scoreboard",
    "repro.util.intervals": "tcp.scoreboard",
    "repro.tcp.congestion": "tcp.congestion",
    "repro.core.proprate": "tcp.congestion",
    "repro.core.adaptive": "tcp.congestion",
    "repro.core.estimators": "core.estimators",
    "repro.core.feedback": "core.feedback",
    "repro.tcp.application": "tcp.application",
    "repro.metrics": "metrics",
    "repro.obs": "obs",
    "repro.debug": "debug",
    "repro.experiments.runner": "experiments.runner",
    "repro.experiments.parallel": "experiments.parallel",
    "repro.fluid.controllers": "fluid.controllers",
    "repro.fluid.engine": "fluid.engine",
    "repro.traces": "traces",
}

#: Congestion-control hooks timed as control computation when
#: ``repro.experiments.cpu`` no longer lists them itself.
CC_HOOKS = ("on_connection_start", "on_ack", "on_congestion",
            "on_recovery_exit", "on_rto", "on_packet_sent", "on_tick")

#: (module, class, methods) wrapped as plain spans.  ``"*"`` means every
#: public plain method the class defines.
TARGETS: List[Tuple[str, str, Any]] = [
    ("repro.sim.engine", "Simulator", ("run", "step")),
    ("repro.sim.link", "CellularLink", ("enqueue",)),
    ("repro.sim.link", "WiredLink", ("enqueue",)),
    ("repro.sim.network", "DuplexPath", ("send_forward", "send_reverse")),
    ("repro.sim.queues", "DropTailQueue", ("pop", "drain_opportunity")),
    ("repro.sim.queues", "CoDelQueue", ("pop", "drain_opportunity")),
    ("repro.tcp.receiver", "TcpReceiver", ("receive", "receive_batch")),
    ("repro.tcp.sender", "TcpSender", ("on_ack_packet", "on_ack_batch")),
    ("repro.core.estimators", "ReceiveRateEstimator", ("on_ack",)),
    ("repro.core.estimators", "BufferDelayEstimator", ("on_ack",)),
    ("repro.core.feedback", "ThresholdFeedbackLoop", ("on_window_sample",)),
    ("repro.tcp.scoreboard", "SenderScoreboard", "*"),
    ("repro.tcp.scoreboard", "ReceiverScoreboard", "*"),
    ("repro.util.intervals", "RunMap", "*"),
    ("repro.metrics.collector", "DeliveryCollector",
     ("on_data", "delays", "delivered_bytes")),
    ("repro.obs.tracer", "Tracer", ("emit",)),
    ("repro.experiments.runner", "ExperimentHarness", ("__init__", "advance")),
]

#: (module, base class, methods): wrapped on the base and on every
#: subclass that defines the method itself.  The congestion-control
#: family is added at install time with the hooks
#: ``repro.experiments.cpu`` lists.
FAMILY_TARGETS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("repro.tcp.application", "Application", ("produced", "total")),
    ("repro.fluid.controllers", "ControllerBank", ("rates", "on_overflow")),
]

#: Modules that define congestion-control classes, imported before the
#: family is walked so every algorithm is a known subclass.
CC_MODULES = ("repro.tcp.congestion", "repro.core.proprate",
              "repro.core.adaptive")

#: ``Simulator`` methods that take the callback to run later.
SCHEDULERS = ("schedule", "schedule_at", "schedule_claimed")
#: ``Simulator`` methods that re-arm an entry whose callback is wrapped already.
RESCHEDULERS = ("reschedule", "reschedule_at", "requeue_claimed")


def layer_of(module: str) -> str:
    probe = module
    while probe:
        layer = LAYER_OF_MODULE.get(probe)
        if layer is not None:
            return layer
        probe = probe.rpartition(".")[0]
    return module[len("repro."):] if module.startswith("repro.") else module


def _owner(callback: Callable) -> Tuple[str, str]:
    """(module, name) of the code a scheduled callback runs."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    bound_to = getattr(callback, "__self__", None)
    module = (type(bound_to).__module__ if bound_to is not None
              else getattr(func, "__module__", None)) or "unknown"
    return module, getattr(func, "__name__", type(callback).__name__)


def _subclasses(cls: type) -> List[type]:
    found, queue = [], [cls]
    while queue:
        head = queue.pop()
        if head not in found:
            found.append(head)
            queue.extend(head.__subclasses__())
    return found


class Recorder:
    """In-memory span aggregation for one traced benchmark process."""

    def __init__(self, raw_limit: int = 10_000) -> None:
        self.raw_limit = raw_limit
        #: (layer, name) -> [calls, inclusive seconds, self seconds]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        #: op id -> {"layers": {layer: self seconds}, "raw": [span, ...]}
        self.ops: Dict[str, Dict[str, Any]] = {}
        #: counts read off the program's public attributes at run end
        self.counters: Dict[str, float] = {}
        #: wrap targets that no longer exist, as "module.Class.method"
        self.missing: List[str] = []
        self._stack: List[list] = []      # open spans: [child seconds, id]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._event_cells: Dict[Tuple[str, str], tuple] = {}
        self._op_id: Optional[str] = None
        self._op_raw: List[tuple] = []
        self._op_base: Dict[str, float] = {}
        self._next_id = 0
        self._ids_left = 0
        self._scheduling = False
        self._harvested: "weakref.WeakSet[Any]" = weakref.WeakSet()

    # -- the span itself ------------------------------------------------
    def _span(self, fn: Callable, layer: str, name: str) -> Callable:
        cell = self.agg.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        clock = perf_counter
        rec = self

        def span(*args, **kwargs):
            frame = [0.0, 0]
            if rec._ids_left > 0:
                rec._ids_left -= 1
                rec._next_id += 1
                frame[1] = rec._next_id
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                cell[0] += 1
                cell[1] += took
                cell[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if frame[1]:
                    rec._op_raw.append(
                        (layer, name, start, end, parent, frame[1]))

        return span

    def span(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span: for call sites in the benchmark's
        own code (module-level functions cannot be patched for callers
        that imported them by name)."""
        return self._span(fn, layer, name)(*args, **kwargs)

    def event_span(self, callback: Callable) -> Callable:
        key = _owner(callback)
        known = self._event_cells.get(key)
        if known is None:
            known = (layer_of(key[0]), "event:" + key[1])
            self._event_cells[key] = known
        return self._span(callback, known[0], known[1])

    # -- ops ------------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        """Self seconds of every layer the run entered."""
        totals: Dict[str, float] = {}
        for (layer, _name), cell in self.agg.items():
            if cell[0]:
                totals[layer] = totals.get(layer, 0.0) + cell[2]
        return totals

    def begin_op(self, op_id: str) -> None:
        self._op_id = op_id
        self._op_raw = []
        self._op_base = self.layer_self()
        self._ids_left = self.raw_limit

    def end_op(self) -> None:
        base = self._op_base
        layers = {layer: total - base.get(layer, 0.0)
                  for layer, total in self.layer_self().items()
                  if total - base.get(layer, 0.0) > 0.0}
        op = self.ops.setdefault(self._op_id, {"layers": {}, "raw": []})
        for layer, seconds in layers.items():
            op["layers"][layer] = op["layers"].get(layer, 0.0) + seconds
        if not op["raw"]:
            op["raw"] = [span + (self._op_id,) for span in self._op_raw]
        self._op_id = None
        self._op_raw = []
        self._ids_left = 0

    def count(self, name: str, value: Optional[float]) -> None:
        if value is not None:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- installing -----------------------------------------------------
    def _resolve(self, module: str, cls: str) -> Optional[type]:
        try:
            found = getattr(importlib.import_module(module), cls, None)
        except ImportError:
            found = None
        if found is None:
            self.missing.append(f"{module}.{cls}")
        return found

    def _patch(self, owner: type, attr: str, build: Callable) -> None:
        original = owner.__dict__.get(attr)
        if not inspect.isfunction(original):
            self.missing.append(f"{owner.__module__}.{owner.__name__}.{attr}")
            return
        wrapper = functools.wraps(original)(build(original))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_span(self, owner: type, attr: str) -> None:
        layer = layer_of(owner.__module__)
        self._patch(owner, attr, lambda fn: self._span(
            fn, layer, f"{owner.__name__}.{attr}"))

    def install(self) -> None:
        for module, cls, methods in TARGETS:
            owner = self._resolve(module, cls)
            if owner is None:
                continue
            if methods == "*":
                methods = [n for n, v in vars(owner).items()
                           if not n.startswith("_") and inspect.isfunction(v)]
            for attr in methods:
                self._patch_span(owner, attr)

        hooks = CC_HOOKS
        try:
            cpu = importlib.import_module("repro.experiments.cpu")
            hooks = tuple(getattr(cpu, "_HOOKS", CC_HOOKS))
        except ImportError:
            pass
        for module in CC_MODULES:
            try:
                importlib.import_module(module)
            except ImportError:
                self.missing.append(module)
        families = FAMILY_TARGETS + [
            ("repro.tcp.congestion.base", "CongestionControl", hooks)]
        for module, base, methods in families:
            root = self._resolve(module, base)
            if root is None:
                continue
            for attr in methods:
                owners = [c for c in _subclasses(root) if attr in vars(c)]
                if not owners:
                    self.missing.append(f"{module}.{base}.{attr}")
                for owner in owners:
                    self._patch_span(owner, attr)

        self._install_engine()
        self._install_queue_push()
        self._install_harvest()

    def _install_engine(self) -> None:
        sim = self._resolve("repro.sim.engine", "Simulator")
        if sim is not None:
            for attr in SCHEDULERS:
                def build(fn, attr=attr):
                    timed = self._span(fn, "sim.engine", "Simulator." + attr)
                    wrap_event = self.event_span
                    rec = self

                    def schedule(sim, *args, **kwargs):
                        if rec._scheduling:
                            # One scheduler delegating to another: the
                            # outer call owns the span and the wrapping.
                            return fn(sim, *args, **kwargs)
                        if "callback" in kwargs:
                            kwargs["callback"] = wrap_event(kwargs["callback"])
                        else:
                            args = args[:-1] + (wrap_event(args[-1]),)
                        rec._scheduling = True
                        try:
                            return timed(sim, *args, **kwargs)
                        finally:
                            rec._scheduling = False
                    return schedule
                self._patch(sim, attr, build)
            for attr in RESCHEDULERS:
                self._patch_span(sim, attr)
        timer = self._resolve("repro.sim.engine", "PeriodicTimer")
        if timer is not None:
            def build_timer(fn):
                wrap_event = self.event_span

                def init(timer, sim, interval, callback, *rest, **kwargs):
                    return fn(timer, sim, interval, wrap_event(callback),
                              *rest, **kwargs)
                return init
            self._patch(timer, "__init__", build_timer)

    def _install_queue_push(self) -> None:
        """``push`` spans also track the deepest queue seen."""
        for cls in ("DropTailQueue", "CoDelQueue"):
            owner = self._resolve("repro.sim.queues", cls)
            if owner is None or "push" not in vars(owner):
                continue

            def build(fn, owner=owner):
                timed = self._span(fn, "sim.queues", owner.__name__ + ".push")
                counters = self.counters

                def push(queue, *args, **kwargs):
                    accepted = timed(queue, *args, **kwargs)
                    depth = len(queue)
                    if depth > counters.get("sim.queues.peak_depth", 0):
                        counters["sim.queues.peak_depth"] = depth
                    return accepted
                return push
            self._patch(owner, "push", build)

    def _install_harvest(self) -> None:
        """``ExperimentHarness.finalize`` span, then read the run's
        public counters off the finished graph."""
        owner = self._resolve("repro.experiments.runner", "ExperimentHarness")
        if owner is None:
            return

        def build(fn):
            timed = self._span(fn, "experiments.runner",
                               "ExperimentHarness.finalize")

            def finalize(harness, *args, **kwargs):
                results = timed(harness, *args, **kwargs)
                if harness not in self._harvested:  # finalize is idempotent
                    self._harvested.add(harness)
                    self._harvest(harness)
                return results
            return finalize
        self._patch(owner, "finalize", build)

    def _harvest(self, harness: Any) -> None:
        count = self.count
        count("sim.engine.events",
              getattr(getattr(harness, "sim", None), "events_processed", None))
        path = getattr(harness, "path", None)
        # Every bench flow is a download: the forward link carries the
        # data, and its share of packets served in multi-opportunity
        # batches is the delivery fast path's reach.
        data_link = getattr(path, "forward_link", None)
        count("sim.link.delivered_packets",
              getattr(data_link, "delivered_packets", None))
        count("sim.link.batched_packets",
              getattr(data_link, "batched_packets", None))
        for side in ("forward_link", "reverse_link"):
            queue = getattr(getattr(path, side, None), "queue", None)
            count("sim.queues.drops", getattr(queue, "drops", None))
        flow_id = 0
        while True:
            try:
                sender = harness.sender(flow_id)
                collector = harness.collector(flow_id)
            except (IndexError, AttributeError):
                break
            flow_id += 1
            count("tcp.sender.acks", getattr(sender, "acks_received", None))
            count("tcp.sender.retransmissions",
                  getattr(sender, "retransmissions", None))
            count("tcp.sender.rtos", getattr(sender, "rto_count", None))
            application = getattr(sender, "application", None)
            if type(application).__name__ not in ("NoneType", "BulkApplication"):
                count("tcp.application.segments",
                      getattr(sender, "segments_sent", None))
            feedback = getattr(getattr(sender, "cc", None), "feedback", None)
            count("core.feedback.adjustments",
                  getattr(feedback, "updates", None))
            count("metrics.records", len(collector))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------
    def aggregate(self) -> List[Dict[str, Any]]:
        return [
            {"layer": layer, "name": name, "calls": int(cell[0]),
             "inclusive_s": cell[1], "self_s": cell[2]}
            for (layer, name), cell in sorted(self.agg.items())
            if cell[0]
        ]

    def dump(self) -> Dict[str, Any]:
        return {
            "span_fields": ["layer", "name", "start", "end", "parent",
                            "id", "op_id"],
            "aggregate": self.aggregate(),
            "layers": self.layer_self(),
            "counters": self.counters,
            "missing": self.missing,
            "ops": self.ops,
        }
