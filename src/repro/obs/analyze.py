"""Trace analysis behind the ``repro trace`` CLI subcommand.

Reads a JSONL trace (single run, or a coordinator-merged parallel
batch where every record carries a ``run`` index), folds it into one
:class:`repro.obs.live.TraceState` — the reducer ``repro watch`` draws
from too — and prints one view of it: the summary (the state-dwell
breakdown of the Fill/Drain machine, the bottleneck-queue sawtooth via
:func:`repro.metrics.telemetry.sawtooth_summary`, the NFL threshold's
convergence toward the latency target), a diff of two traces, the
phase-profile table, or the ASCII plot.

Kept out of ``repro.obs.__init__`` so the hot-path tracer never drags
in numpy/metrics; the CLI imports this module lazily.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.metrics.telemetry import sawtooth_summary
from repro.obs.events import AUDIT_VIOLATION
from repro.obs.live import PACKET_BYTES, TraceFollower, TraceState, run_label


def read_trace(path: str) -> List[Dict[str, Any]]:
    """All records of a trace and its part files, oldest first.

    One drain of :class:`~repro.obs.live.TraceFollower`: raises
    ``FileNotFoundError`` without a trace and
    ``ValueError("<file>:<line>: ...")`` at a malformed record.
    """
    return TraceFollower(path).drain()


#: Key fragment marking phase-profiler counters (see ``repro.obs.prof``).
_PROF_MARKER = "timing.prof."


def profile_table(events: List[Dict[str, Any]]) -> str:
    """Phase-timing table from ``*.timing.prof.*`` counters.

    Aggregates the run/batch-scope profiler counters in the trace's
    metrics records into one table per (scope, phase), sorted by wall
    time.  Empty string when the trace carries no profiling data (the
    run was executed without ``profile=``/``REPRO_PROFILE``).
    """
    rows: Dict[Tuple[str, str], Dict[str, float]] = {}
    for key, value in TraceState.of(events).metrics.items():
        pos = key.find(_PROF_MARKER)
        if pos < 0 or isinstance(value, dict):
            continue
        scope = key[:pos].rstrip(".") or "?"
        phase, _, fld = key[pos + len(_PROF_MARKER):].rpartition(".")
        if fld not in ("calls", "wall_s", "cpu_s") or not phase:
            continue
        rows.setdefault((scope, phase), {})[fld] = float(value)
    if not rows:
        return ""
    out = [f"  {'phase':18s} {'scope':6s} {'calls':>10s} {'wall s':>9s} "
           f"{'cpu s':>9s} {'us/call':>9s}"]
    for (scope, phase), cells in sorted(
            rows.items(), key=lambda kv: (-kv[1].get("wall_s", 0.0), kv[0])):
        calls = cells.get("calls", 0.0)
        wall = cells.get("wall_s", 0.0)
        cpu = cells.get("cpu_s", 0.0)
        per = wall / calls * 1e6 if calls else 0.0
        out.append(f"  {phase:18s} {scope:6s} {calls:10.0f} {wall:9.3f} "
                   f"{cpu:9.3f} {per:9.1f}")
    out.append("  (phase times are inclusive; nested phases overlap)")
    return "\n".join(out)


def _sampling_lines(state: TraceState) -> List[str]:
    """Per-kind sampling-drop counters, so truncation is never silent."""
    per, total = state.sampling_drops()
    lines = [f"  {scope:6s} {kind:20s} {value:.0f} dropped"
             for (scope, kind), value in sorted(per.items())]
    if total:
        lines.append(f"  total dropped by sampling budgets: {total:.0f}")
    return lines


def _audit_lines(state: TraceState) -> List[str]:
    """Each auditor violation, and each flight-recorder dump with the
    exception that caused it."""
    lines = []
    for rec in state.audit:
        where = f"  run {run_label(rec.get('run'))} t={rec.get('t', 0.0):.3f}s"
        if rec["kind"] == AUDIT_VIOLATION:
            lines.append(f"{where} [{rec.get('check')}] {rec.get('message')}")
        else:
            lines.append(f"{where} dump {rec.get('path')}: "
                         f"{rec.get('violations', 0)} violations")
            if "exception" in rec:
                lines.append(f"      exception: {rec['exception']}")
    return lines


def _sawtooth_lines(state: TraceState) -> List[str]:
    lines = []
    for (run, link), queue in sorted(
            state.queues.items(),
            key=lambda kv: (run_label(kv[0][0]), kv[0][1])):
        times = np.asarray([t for t, _ in queue])
        lens = np.asarray([n for _, n in queue])
        rate = state.link_rates.get((run, link))
        if not rate or times.size < 10:
            lines.append(f"  run {run_label(run)} {link:10s} "
                         f"{times.size} samples (too few / no rate)")
            continue
        delays = lens * (PACKET_BYTES / rate)
        try:
            s = sawtooth_summary(times, delays)
        except ValueError as exc:
            lines.append(f"  run {run_label(run)} {link:10s} n/a ({exc})")
            continue
        period = "n/a" if np.isnan(s.period) else f"{s.period:6.2f}s"
        lines.append(
            f"  run {run_label(run)} {link:10s} peak {s.dmax * 1000:7.1f}ms  "
            f"trough {s.dmin * 1000:7.1f}ms  avg {s.average * 1000:7.1f}ms  "
            f"period {period}  cycles {s.n_cycles}  "
            f"empty {s.empty_fraction * 100:.0f}%")
    return lines


def _nfl_lines(state: TraceState, max_rows: int = 6) -> List[str]:
    lines = []
    for (run, flow), updates in sorted(
            state.nfl.items(),
            key=lambda kv: (run_label(kv[0][0]), str(kv[0][1]))):
        curve = list(updates)
        first, last = curve[0], curve[-1]
        target = last.get("target", float("nan"))
        lines.append(
            f"  run {run_label(run)} flow {flow}: {len(curve)} updates, "
            f"T {first['threshold'] * 1000:.1f}ms -> "
            f"{last['threshold'] * 1000:.1f}ms "
            f"(target {target * 1000:.1f}ms, final t_actual "
            f"{last.get('t_actual', float('nan')) * 1000:.1f}ms)")
        if len(curve) > 1:
            idx = np.unique(np.linspace(0, len(curve) - 1,
                                        min(max_rows, len(curve)), dtype=int))
            for i in idx:
                e = curve[i]
                lines.append(
                    f"      t={e['t']:7.2f}s  T={e['threshold'] * 1000:6.2f}ms"
                    f"  t_actual={e.get('t_actual', float('nan')) * 1000:6.2f}ms")
    return lines


def _dwell_lines(state: TraceState) -> List[str]:
    lines = []
    for (run, flow), states in sorted(
            state.state_dwell().items(),
            key=lambda kv: (run_label(kv[0][0]), str(kv[0][1]))):
        total = sum(t for _, t in states.values()) or 1.0
        lines.append(f"  run {run_label(run)} flow {flow}:")
        for name, (entries, secs) in sorted(
                states.items(), key=lambda kv: -kv[1][1]):
            lines.append(
                f"      {name:12s} {entries:5d} entries  {secs:8.2f}s  "
                f"{secs / total * 100:5.1f}%")
    return lines


def _metrics_lines(snap: Dict[str, Any], limit: int = 40) -> List[str]:
    lines = []
    for key in sorted(snap)[:limit]:
        value = snap[key]
        if isinstance(value, dict):
            if "gauge" in value:
                lines.append(f"  {key} = {value['gauge']:g} (peak)")
            else:
                mean = value["sum"] / value["count"] if value["count"] else 0.0
                lines.append(
                    f"  {key} = n={value['count']} mean={mean:.3g} "
                    f"min={value['min']:.3g} max={value['max']:.3g}")
        else:
            lines.append(f"  {key} = {value:g}"
                         if isinstance(value, float) else f"  {key} = {value}")
    if len(snap) > limit:
        lines.append(f"  ... {len(snap) - limit} more")
    return lines


def render_plot(events: List[Dict[str, Any]], width: int = 100,
                height: int = 8) -> str:
    """ASCII waveform view of a telemetry trace.

    Every run's panel (:meth:`TraceState.panel` — the same lanes the
    ``repro watch`` frame shows) over the whole time axis, then the
    fluid-tier tower panel if the trace has one.
    """
    state = TraceState.of(events)
    lines = state.panel(state.last_t, width, height)
    if state.towers:
        lines.extend(state.tower_panel(width))
    return "\n".join(lines) if lines else \
        "no queue samples or cc.state events to plot"


def summarize_trace(events: List[Dict[str, Any]], label: str = "trace") -> str:
    """Human-readable single-trace report."""
    state = TraceState.of(events)
    runs = sorted({run_label(run) for run in state.runs})
    out = [f"Trace {label}: {state.records} records, runs: "
           f"{', '.join(runs) if runs else '-'}"]
    out.append("Event counts:")
    for kind in sorted(state.kinds):
        out.append(f"  {kind:20s} {state.kinds[kind]}")
    for title, lines in (
            ("Audit:", _audit_lines(state)),
            ("State dwell (CC state machine):", _dwell_lines(state)),
            ("NFL threshold convergence:", _nfl_lines(state)),
            ("Queue sawtooth (from queue.sample, assuming 1500 B/pkt):",
             _sawtooth_lines(state)),
            ("Sampling (events dropped by per-kind budgets):",
             _sampling_lines(state)),
            ("Metrics:", _metrics_lines(state.metrics))):
        if lines:
            out.append(title)
            out.extend(lines)
    return "\n".join(out)


def _aggregate_dwell(state: TraceState) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for states in state.state_dwell().values():
        for name, (_, secs) in states.items():
            totals[name] += secs
    return dict(totals)


def _final_thresholds(state: TraceState) -> Dict[str, float]:
    return {f"run {run_label(run)} flow {flow}": curve[-1]["threshold"]
            for (run, flow), curve in state.nfl.items()}


def diff_traces(a: List[Dict[str, Any]], b: List[Dict[str, Any]],
                label_a: str = "A", label_b: str = "B") -> str:
    """Side-by-side comparison of two traces."""
    sa, sb = TraceState.of(a), TraceState.of(b)
    out = [f"Diff: A={label_a} ({sa.records} records)  "
           f"B={label_b} ({sb.records} records)"]
    out.append("Event count deltas (B - A):")
    for kind in sorted(set(sa.kinds) | set(sb.kinds)):
        da, db = sa.kinds[kind], sb.kinds[kind]
        if da != db:
            out.append(f"  {kind:20s} {da:8d} -> {db:8d}  ({db - da:+d})")
    dwa, dwb = _aggregate_dwell(sa), _aggregate_dwell(sb)
    if dwa or dwb:
        ta = sum(dwa.values()) or 1.0
        tb = sum(dwb.values()) or 1.0
        out.append("State dwell share (all runs/flows):")
        for name in sorted(set(dwa) | set(dwb)):
            pa, pb = dwa.get(name, 0.0) / ta, dwb.get(name, 0.0) / tb
            out.append(f"  {name:12s} {pa * 100:6.1f}% -> {pb * 100:6.1f}%  "
                       f"({(pb - pa) * 100:+.1f}pp)")
    tha, thb = _final_thresholds(sa), _final_thresholds(sb)
    if tha or thb:
        out.append("Final NFL threshold (ms):")
        for key in sorted(set(tha) | set(thb)):
            va = tha.get(key)
            vb = thb.get(key)
            fa = "-" if va is None else f"{va * 1000:.2f}"
            fb = "-" if vb is None else f"{vb * 1000:.2f}"
            out.append(f"  {key}: {fa} -> {fb}")
    ma, mb = sa.metrics, sb.metrics
    changed = []
    for key in sorted(set(ma) | set(mb)):
        va, vb = ma.get(key), mb.get(key)
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            if va != vb:
                changed.append(f"  {key}: {va:g} -> {vb:g}")
        elif va != vb:
            changed.append(f"  {key}: changed")
    if changed:
        out.append("Metric deltas:")
        out.extend(changed[:50])
    return "\n".join(out)
