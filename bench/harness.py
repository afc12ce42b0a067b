"""Measure one workload in this process: set-up, timed passes, traced passes.

The method (see ``README.md``): one untimed warm-up pass that belongs to
set-up, then timed passes until the time budget is spent and at least
``MIN_PASSES`` are in; every timing is the median over passes.  Pass
``k`` runs realization ``k`` of the seed's inputs (wrapping around), the
warm-up pass realization 0, so the median is steady against the host's
slow passes and against the odd input draw alike; a realization that
comes round again must reproduce its digest.  A traced run stays on
realization 0: it spends part of the budget on untraced passes (their
wall time is the base of ``bench.span_overhead_frac``) and then runs two
passes under the span recorder, whose counts must agree exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import tempfile
import traceback
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

import schema
import spans
import workloads
from workloads import Context, PassResult, cpu_seconds, digest

#: Share of a traced run's time budget spent on untraced passes, and the
#: fewest of them.
TRACED_UNTRACED_SHARE = 0.4
TRACED_MIN_UNTRACED = 3
TRACED_PASSES = 2

#: Metrics with one value per timed pass, in pass order: ``compare.py``
#: pairs them pass by pass (same realization on both sides).
PER_PASS = ("flow_s_per_wall_s", "cpu_ms_per_flow_s", "goodput_util",
            "tbuff_track_err_ms", "trace_overhead_frac")

#: The two speed metrics are reported as the quartile of the passes on
#: the fast side, not the median.  Interference on a shared host only
#: ever adds time, and it comes in episodes of seconds to minutes during
#: which most passes of a run are slow: over ten-seed sets measured on
#: the development host the fast quartile spread by 9 / 21 / 16 % where
#: the median spread by 14 / 28 / 20 % (README, "Method").
FAST_QUARTILE = {"flow_s_per_wall_s": "q3", "cpu_ms_per_flow_s": "q1"}


def quartiles(values: List[float], metric: str = "") -> Dict[str, Any]:
    """median / q1 / q3 / n of a sample, as ``compare.py`` reads them,
    and ``value``: the one number reported for ``metric``."""
    if not values:
        return {"value": None, "median": None, "q1": None, "q3": None,
                "n": 0, "values": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    stats = {"median": statistics.median(values), "q1": q1, "q3": q3,
             "n": len(values), "values": values}
    stats["value"] = stats[FAST_QUARTILE.get(metric, "median")]
    return stats


def median_of(passes: List[Dict[str, Any]], key: str) -> Optional[float]:
    values = [p["extras"][key] for p in passes if key in p["extras"]]
    return statistics.median(values) if values else None


def spin_mops(seconds: float) -> float:
    """Millions of fixed pure-Python loop steps per second: what the
    host gives one core right now."""
    done, acc = 0, 0
    start = perf_counter()
    while True:
        for i in range(100_000):
            acc += i & 3
        done += 100_000
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return done / elapsed / 1e6


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def run_pass(workload: Any, ctx: Context, realization: int = 0
             ) -> Dict[str, Any]:
    """One pass with its wall, CPU, digest and failure accounting."""
    realization %= len(workload.inputs)
    cpu = cpu_seconds()
    start = perf_counter()
    try:
        result = workload.run_pass(ctx, workload.inputs[realization])
    except Exception:  # noqa: BLE001 - a pass that dies fails as one op
        result = PassResult([workloads.Op("pass", error=traceback.format_exc())])
    wall = pass_wall = perf_counter() - start
    cpu = cpu_seconds() - cpu
    flow_seconds = sum(op.flow_seconds for op in result.ops if op.ok)
    if result.timed is not None:
        wall, cpu, flow_seconds = result.timed
    utils = [op.goodput_util for op in result.ops
             if op.ok and op.goodput_util is not None]
    return {
        "realization": realization,
        "pass_wall": pass_wall,   # the whole pass, timed section or not
        "wall": wall,
        "cpu": cpu,
        "flow_seconds": flow_seconds,
        "goodput_util": statistics.fmean(utils) if utils else None,
        "digest": digest(result.ops),
        "attempted": len(result.ops),
        "errors": [f"{op.name}: {op.error}" for op in result.ops if not op.ok],
        "extras": result.extras,
    }


@contextlib.contextmanager
def scratch_dir(root: str, prefix: str) -> Iterator[str]:
    """A directory under ``root`` (inside the checkout) that is gone,
    with ``root`` itself if nothing else is using it, when the block ends."""
    os.makedirs(root, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=prefix, dir=root) as path:
            yield path
    finally:
        try:
            os.rmdir(root)
        except OSError:
            pass  # another run's scratch is still in it


def measure(name: str, seed: int, seconds: float, traced: bool,
            scale: float, script_start: float, scratch_root: str,
            spans_path: Optional[str] = None,
            setup_only: bool = False) -> Dict[str, Any]:
    """Run workload ``name`` and return its record."""
    with scratch_dir(scratch_root, name + "-") as scratch:
        return _measure(name, seed, seconds, traced, scale, script_start,
                        scratch, spans_path, setup_only)


def _measure(name, seed, seconds, traced, scale, script_start, scratch,
             spans_path, setup_only) -> Dict[str, Any]:
    spin = spin_mops(0.25) if traced else None
    ctx = Context(scratch)
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, scale, 1 if traced else workloads.REALIZATIONS, ctx)
    warm = run_pass(workload, ctx)
    setup_s = perf_counter() - script_start
    if setup_only:
        return {"workload": name, "setup_s": setup_s}

    budget = seconds * TRACED_UNTRACED_SHARE if traced else seconds
    fewest = TRACED_MIN_UNTRACED if traced else schema.MIN_PASSES
    passes: List[Dict[str, Any]] = []
    begin = perf_counter()
    while len(passes) < fewest or perf_counter() - begin < budget:
        passes.append(run_pass(workload, ctx, len(passes)))

    traced_passes: List[Dict[str, Any]] = []
    recorders: List[spans.Recorder] = []
    if traced:
        for _ in range(TRACED_PASSES):
            rec = spans.Recorder()
            rec.install()
            ctx.recorder = rec
            try:
                traced_passes.append(run_pass(workload, ctx))
            finally:
                ctx.recorder = None
                rec.uninstall()
            recorders.append(rec)

    # -- output checks --------------------------------------------------
    attempted = failed = 0
    failures: List[str] = []
    reference: Dict[int, str] = {}
    for p in [warm] + passes + traced_passes:
        attempted += p["attempted"]
        expected = reference.setdefault(p["realization"], p["digest"])
        if p["digest"] != expected and not p["errors"]:
            # Same inputs, different outputs: none of this pass's
            # results can be trusted.
            failed += p["attempted"]
            failures.append("result digest differs from an earlier pass "
                            f"over realization {p['realization']}")
        else:
            failed += len(p["errors"])
            failures.extend(p["errors"])
    counts_repeat = None
    if traced:
        first, second = recorders
        counts_repeat = (
            {k: c[0] for k, c in first.agg.items()}
            == {k: c[0] for k, c in second.agg.items()}
            and first.counters == second.counters)
        if not counts_repeat:
            failed += 1
            attempted += 1
            failures.append("span counts differ between two traced passes")

    good = [p for p in passes if p["flow_seconds"] > 0 and p["wall"] > 0]
    end_to_end = {
        "flow_s_per_wall_s": [p["flow_seconds"] / p["wall"] for p in good],
        "cpu_ms_per_flow_s": [1000.0 * p["cpu"] / p["flow_seconds"]
                              for p in good],
        "goodput_util": [p["goodput_util"] for p in good
                         if p["goodput_util"] is not None],
        "peak_rss_mb": [peak_rss_mb()],
        "setup_s": [setup_s],
        "failed_share": [failed / attempted],
    }
    for metric, extra in (("tbuff_track_err_ms", "tbuff_track_err_ms"),
                          ("trace_overhead_frac", "arm_ratio.full")):
        values = [p["extras"][extra] for p in passes if extra in p["extras"]]
        if values:
            end_to_end[metric] = values
    units = {n: u for n, u, _b, _bound in schema.END_TO_END}
    units.update({n: u for n, u, *_rest in schema.WORKLOAD_END_TO_END})

    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "traced": traced,
        "sizes": workload.sizes(),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failures": failures[:5],
        "result_digest": reference[0],
        "end_to_end": {
            metric: dict(quartiles(values, metric), unit=units[metric],
                         paired=metric in PER_PASS)
            for metric, values in end_to_end.items()
        },
    }
    if traced:
        rec = recorders[0]
        values = layer_metrics(rec, traced_passes[0], passes, ctx, workload,
                               spin, end_to_end)
        layer_units = {n: u for n, u, _b in schema.PER_LAYER}
        record["per_layer"] = {
            metric: {"value": values.get(metric), "unit": layer_units[metric]}
            for metric in layer_units
        }
        record["counts_repeat"] = counts_repeat
        record["spans_summary"] = {
            "pass_wall_s": traced_passes[0]["pass_wall"],
            "layers": rec.layer_self(),
            "aggregate": rec.aggregate(),
            "counters": rec.counters,
            "missing": rec.missing,
        }
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(dict(rec.dump(), workload=name, seed=seed), fh)
    return record


def layer_metrics(rec: spans.Recorder, traced_pass: Dict[str, Any],
                  passes: List[Dict[str, Any]], ctx: Context, workload: Any,
                  spin: Optional[float],
                  end_to_end: Dict[str, List[float]]) -> Dict[str, Any]:
    """Every ``schema.PER_LAYER`` value this run can state; a metric
    whose layer the run never entered (or whose wrap target is gone) is
    left out and reads ``null``."""
    layers = rec.layer_self()
    counters = rec.counters
    agg = rec.agg

    def inclusive(layer: str, name: str) -> float:
        cell = agg.get((layer, name))
        return cell[1] if cell else 0.0

    def calls(layer: str, *, prefix: str = "", suffix: str = "") -> Optional[int]:
        total = sum(c[0] for (lyr, n), c in agg.items()
                    if lyr == layer and n.startswith(prefix)
                    and n.endswith(suffix))
        return int(total) or None

    def per(total: Optional[float], count: Optional[float],
            factor: float = 1.0) -> Optional[float]:
        if total is None or not count:
            return None
        return factor * total / count

    out: Dict[str, Any] = {}
    for layer in ("sim.engine", "sim.link", "sim.queues", "tcp.sender",
                  "tcp.scoreboard", "tcp.receiver", "core.estimators",
                  "tcp.application", "fluid.controllers", "obs"):
        out[layer + ".self_s"] = layers.get(layer)
    out["metrics.collector_self_s"] = layers.get("metrics")

    events = counters.get("sim.engine.events")
    data_pkts = calls("metrics", suffix=".on_data")
    acks = counters.get("tcp.sender.acks")
    enqueues = calls("sim.link", suffix=".enqueue")
    scheduling = [c[0] for (lyr, n), c in agg.items()
                  if lyr == "sim.engine" and n.startswith("Simulator.")
                  and n not in ("Simulator.run", "Simulator.step")]
    out["sim.engine.events"] = events
    out["sim.engine.us_per_event"] = per(layers.get("sim.engine"), events, 1e6)
    out["sim.engine.events_per_pkt"] = per(events, data_pkts)
    out["sim.engine.schedule_calls"] = int(sum(scheduling)) or None
    out["sim.link.enqueue_calls"] = enqueues
    out["sim.link.service_events"] = calls("sim.link", prefix="event:")
    out["sim.link.us_per_pkt"] = per(layers.get("sim.link"), enqueues, 1e6)
    out["sim.link.batched_pkt_share"] = per(
        counters.get("sim.link.batched_packets"),
        counters.get("sim.link.delivered_packets"))
    out["sim.queues.drops"] = counters.get("sim.queues.drops")
    out["sim.queues.peak_depth"] = counters.get("sim.queues.peak_depth")
    out["tcp.sender.acks"] = acks
    out["tcp.sender.us_per_ack"] = per(layers.get("tcp.sender"), acks, 1e6)
    out["tcp.sender.tick_events"] = calls("tcp.sender",
                                          prefix="event:_tick_fire")
    out["tcp.sender.retransmissions"] = counters.get(
        "tcp.sender.retransmissions")
    out["tcp.sender.rtos"] = counters.get("tcp.sender.rtos")
    out["tcp.scoreboard.calls"] = calls("tcp.scoreboard")
    out["tcp.scoreboard.us_per_ack"] = per(
        layers.get("tcp.scoreboard"), acks, 1e6)
    out["tcp.receiver.data_pkts"] = data_pkts
    # Every bench flow is a download, so the reverse path carries ACKs only.
    out["tcp.receiver.acks_sent"] = calls("sim.link", suffix=".send_reverse")
    out["tcp.receiver.us_per_pkt"] = per(
        layers.get("tcp.receiver"), data_pkts, 1e6)

    # Control computation as repro.experiments.cpu times it: the CC
    # hooks with the estimators and feedback loop they call.
    control = ("tcp.congestion", "core.estimators", "core.feedback")
    if any(layer in layers for layer in control):
        out["tcp.congestion.control_s"] = sum(
            layers.get(layer, 0.0) for layer in control)
    out["tcp.congestion.calls"] = calls("tcp.congestion")
    for op_name, label in (("PR(M)", "PR-M"), ("CUBIC", "CUBIC"), ("BBR", "BBR")):
        op = rec.ops.get(op_name)
        if op is not None:
            out[f"tcp.congestion.ms_per_sim_s.{label}"] = 1000.0 * sum(
                op["layers"].get(layer, 0.0) for layer in control
            ) / workload.duration
    out["core.estimators.updates"] = calls("core.estimators")
    out["core.feedback.adjustments"] = counters.get("core.feedback.adjustments")
    out["tcp.application.segments"] = counters.get("tcp.application.segments")
    out["metrics.records"] = counters.get("metrics.records")

    build = inclusive("experiments.runner", "ExperimentHarness.__init__")
    if build:
        loop = inclusive("sim.engine", "Simulator.run")
        out["experiments.runner.build_s"] = build
        out["experiments.runner.advance_s"] = loop
        out["experiments.runner.finalize_s"] = (
            inclusive("experiments.runner", "ExperimentHarness.finalize")
            + inclusive("experiments.runner", "ExperimentHarness.advance")
            - loop)
    for key in ("traces.generate_s", "traces.compile_s",
                "traces.opportunities"):
        out[key] = ctx.setup_stats.get(key)

    for key in ("coord_cpu_s", "first_outcome_s", "effective_cores",
                "specs", "attempts"):
        out["experiments.parallel." + key] = median_of(
            passes, "experiments.parallel." + key)
    for key in ("run_s", "steps", "report_s"):
        out["fluid.engine." + key] = median_of(passes, "fluid.engine." + key)
    if out["fluid.engine.run_s"]:
        out["fluid.engine.flow_steps_per_s"] = (
            workload.n_flows * out["fluid.engine.steps"]
            / out["fluid.engine.run_s"])
    out["fluid.controllers.calls"] = calls("fluid.controllers")

    out["obs.emit_calls"] = calls("obs", suffix=".emit")
    out["obs.trace_bytes_per_flow_s"] = median_of(
        passes, "obs.trace_bytes_per_flow_s")
    out["obs.dropped_events"] = median_of(passes, "obs.dropped_events")
    out["obs.arm_result_mismatches"] = median_of(
        passes, "obs.arm_result_mismatches")
    out["obs.sampled_overhead_frac"] = median_of(passes, "arm_ratio.sampled")
    out["debug.audit_overhead_frac"] = median_of(passes, "arm_ratio.audit")

    untraced_wall = statistics.median(p["pass_wall"] for p in passes)
    traced_wall = traced_pass["pass_wall"]
    out["bench.span_overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["bench.unattributed_s"] = traced_wall - sum(layers.values())
    out["bench.host_spin_mops"] = spin
    out["bench.pass_wall_s"] = untraced_wall
    out["bench.traced_pass_wall_s"] = traced_wall
    out["bench.missing_targets"] = len(rec.missing)
    for metric in ("failed_share", "tbuff_track_err_ms", "trace_overhead_frac"):
        values = end_to_end.get(metric)
        if values:
            out["workload." + metric] = statistics.median(values)
    return out
