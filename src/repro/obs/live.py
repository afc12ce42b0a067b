"""The one trace reader and the one trace reducer, and ``repro watch``.

Both trace tools — ``repro trace`` (:mod:`repro.obs.analyze`) and the
``repro watch`` dashboard (:func:`watch` below) — are two views of the
same pieces:

* :class:`TraceFollower` — incremental JSONL tailing of a trace that is
  still being written: the trace file plus the worker part files
  (``<base>.partNNNN.jsonl``) of a batch in flight.  Read state is kept
  per path.  Part files are tailed as they appear, their records tagged
  with the spec index; when the coordinator merges them back into the
  base trace the follower skips the re-appearing copies, so every
  record is yielded exactly once whether it was seen live or
  post-merge.  :meth:`TraceFollower.drain` reads a finished trace in
  one go; it is what ``repro trace`` loads a trace with.
* :class:`TraceState` — the fold of the record stream into everything
  either tool reads: run horizons and link rates, the queue sawtooth
  per link, the CC state curve, loss marks and NFL updates per flow,
  the metrics snapshot, scheduler progress, fluid tower occupancy and
  the auditor's violations and flight-recorder dumps.
  It also draws the per-run panel (waveform canvas, state lane, loss
  lane, legend) that ``trace --plot`` prints and the watch frame shows.

:func:`watch` ties them together into an auto-refreshing terminal
dashboard that exits on its own when the trace completes (the batch
metrics record, ``run.end``, or ``fluid.end`` has been seen and the
tail has gone quiet).
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from collections import Counter, defaultdict, deque
from functools import partial
from typing import (Any, Deque, Dict, Iterable, List, Optional, Set, TextIO,
                    Tuple)

from repro.obs.events import (
    AUDIT_DUMP,
    AUDIT_VIOLATION,
    CC_LOSS,
    CC_LOSS_RUNS,
    CC_NFL,
    CC_STATE,
    FLUID_END,
    FLUID_RUN,
    FLUID_TOWER,
    META,
    METRICS,
    QUEUE_SAMPLE,
    RUN_END,
    RUN_START,
    SCHED_DISPATCH,
    SCHED_OUTCOME,
    SCHED_RETRY,
    SCHED_TIMEOUT,
    SCHED_WORKER_DEATH,
)
from repro.obs.registry import merge_snapshots

__all__ = ["TraceFollower", "TraceState", "watch"]

#: Retained samples per waveform in the live dashboard — enough for one
#: screenful at any plausible width while keeping a 1000-flow fluid
#: run's memory flat.  ``repro trace`` keeps every sample.
WAVE_SAMPLES = 4096

#: Panels the dashboard has room for; the most recently active runs win.
MAX_RUNS = 3
MAX_TOWERS = 12

#: MSS assumed when converting queue occupancy to buffering delay.
PACKET_BYTES = 1500

#: Key fragment marking sampling-drop counters (see ``repro.obs.sampling``).
DROP_MARKER = "telemetry.dropped."

#: Kinds that put a run on the dashboard.
_DRAWN_KINDS = frozenset((QUEUE_SAMPLE, CC_STATE, CC_LOSS, CC_LOSS_RUNS,
                          RUN_START, RUN_END, FLUID_RUN, FLUID_TOWER,
                          FLUID_END))

_EIGHTHS = " ▁▂▃▄▅▆▇█"

_PART_RE = re.compile(r"\.part(\d+)\.jsonl$")


def run_label(run: Any) -> str:
    """How a run tag prints (and sorts): its index, or ``-`` untagged."""
    return "-" if run is None else str(run)


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
class _LineSource:
    """One file's read state: offset, held partial line, lines consumed."""

    __slots__ = ("name", "offset", "tail", "lineno")

    def __init__(self, name: str) -> None:
        self.name = name
        self.offset = 0
        self.tail = b""
        self.lineno = 0


class TraceFollower:
    """Incrementally read a live, possibly-parallel trace.

    ``poll()`` returns the records appended since the previous poll,
    oldest first.  Records read from worker part files carry a
    ``"run"`` tag (the spec index from the filename), matching the
    shape the coordinator's merge gives them, so downstream reductions
    never care whether they saw the live part or the merged base.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.first_error: Optional[str] = None
        # path -> read state for every file of the trace we have
        # started reading.
        self._sources: Dict[str, _LineSource] = {}
        # run index -> records already yielded from that run's part
        # file; the merged base re-contains exactly those lines (in the
        # same per-run order), so this many run-tagged base records are
        # skipped per run.
        self._from_parts: Dict[int, int] = defaultdict(int)
        self._skipped: Dict[int, int] = defaultdict(int)

    def _records(self, src: _LineSource, chunk: bytes,
                 final: bool) -> List[Dict[str, Any]]:
        """The complete records ``chunk`` finishes.

        An unterminated last line is held in ``src`` for the next chunk,
        unless ``final`` says no more bytes are coming.  A line that is
        not a JSON object is skipped; the first one is reported in
        :attr:`first_error` as ``"<file>:<line>: ..."``.
        """
        lines = (src.tail + chunk).split(b"\n")
        src.tail = b"" if final else lines.pop()
        records: List[Dict[str, Any]] = []
        for raw in lines:
            src.lineno += 1
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw.decode("utf-8", errors="replace"))
            except ValueError as exc:
                rec = exc
            if isinstance(rec, dict):
                records.append(rec)
            elif self.first_error is None:
                why = rec if isinstance(rec, ValueError) else "not an object"
                self.first_error = (f"{src.name}:{src.lineno}: malformed "
                                    f"trace record ({why})")
        return records

    def _read_new(self, fpath: str, final: bool) -> List[Dict[str, Any]]:
        """Records appended to one file since the last read of it."""
        try:
            fh = open(fpath, "rb")
        except OSError:
            return []
        src = self._sources.get(fpath)
        if src is None:
            src = self._sources[fpath] = _LineSource(fpath)
        with fh:
            fh.seek(src.offset)
            chunk = fh.read()
        src.offset += len(chunk)
        return self._records(src, chunk, final)

    def _part_paths(self) -> List[Tuple[int, str]]:
        """Live worker part files next to the base trace, by run index."""
        parent = os.path.dirname(self.path) or "."
        base = os.path.basename(self.path)
        try:
            names = os.listdir(parent)
        except OSError:
            return []
        found: List[Tuple[int, str]] = []
        for name in names:
            if not name.startswith(base + ".part"):
                continue
            m = _PART_RE.search(name)
            if m is not None and name == f"{base}.part{int(m.group(1)):04d}.jsonl":
                found.append((int(m.group(1)), os.path.join(parent, name)))
        return sorted(found)

    def poll(self, final: bool = False) -> List[Dict[str, Any]]:
        """New records; ``final`` also decodes unterminated last lines."""
        records: List[Dict[str, Any]] = []

        # Worker part files first: they hold the newest run-scoped
        # events while a batch is in flight.
        for run, part in self._part_paths():
            for rec in self._read_new(part, final):
                rec.setdefault("run", run)
                self._from_parts[run] += 1
                records.append(rec)

        # Then the base trace.
        for rec in self._read_new(self.path, final):
            run = rec.get("run")
            if isinstance(run, int) and \
                    self._skipped[run] < self._from_parts[run]:
                self._skipped[run] += 1  # merged copy of a seen record
                continue
            records.append(rec)
        return records

    def require(self) -> None:
        """Raise ``FileNotFoundError`` unless the trace file exists."""
        if not os.path.exists(self.path):
            raise FileNotFoundError(f"no trace found at {self.path}")

    def drain(self) -> List[Dict[str, Any]]:
        """Every record of a finished trace, oldest first.

        Raises ``FileNotFoundError`` when there is no trace at the path
        and ``ValueError("<file>:<line>: ...")`` at the first malformed
        or truncated record — what a killed writer leaves behind.
        """
        self.require()
        records = self.poll(final=True)
        if self.first_error is not None:
            raise ValueError(self.first_error)
        return records


# ----------------------------------------------------------------------
# The reducer
# ----------------------------------------------------------------------
class TraceState:
    """The one reduction of a trace's record stream.

    ``repro trace`` folds a whole trace (:meth:`of`) and prints its
    summary, diff, profile table or plot from the result;
    ``repro watch`` folds a live trace poll by poll and draws
    :meth:`render`.  ``wave_samples`` bounds every retained series
    (queue samples, state curves, loss marks, NFL updates, tower
    samples): ``None`` keeps them all, which ``trace --plot`` needs to
    draw the whole time axis; the dashboard keeps the newest
    :data:`WAVE_SAMPLES`.
    """

    def __init__(self, wave_samples: Optional[int] = None) -> None:
        series = partial(deque, maxlen=wave_samples)
        self.records = 0
        self.kinds: Counter = Counter()
        self.runs: Set[Any] = set()  # run tags of every non-meta record
        # Per run: the run.end time, else its last simulated time.
        self.horizon: Dict[Any, float] = {}
        # Per run with something to draw: its latest time, first-seen order.
        self.last_t: Dict[Any, float] = {}
        self.link_rates: Dict[Tuple[Any, str], float] = {}
        self.queues: Dict[Tuple[Any, str], Deque[Tuple[float, int]]] = \
            defaultdict(series)
        self.states: Dict[Tuple[Any, Any], Deque[Tuple[float, str]]] = \
            defaultdict(series)
        self.losses: Dict[Tuple[Any, Any], Deque[float]] = defaultdict(series)
        self.nfl: Dict[Tuple[Any, Any], Deque[Dict[str, Any]]] = \
            defaultdict(series)
        # ``audit.violation`` and ``audit.dump`` records, in trace order.
        self.audit: Deque[Dict[str, Any]] = series()
        self._batch_metrics: Optional[Dict[str, Any]] = None
        self._run_metrics: Dict[str, Any] = {}
        self.batch_size = 0
        self.failed = 0
        self.fluid_meta: Optional[Dict[str, Any]] = None
        self.fluid_jfi: Optional[float] = None
        self.towers: Dict[Any, Dict[str, Any]] = {}
        self.tower_waves: Dict[Any, Deque[Tuple[float, float]]] = \
            defaultdict(series)
        self.complete = False

    @classmethod
    def of(cls, records: List[Dict[str, Any]]) -> "TraceState":
        """A whole trace, folded with nothing dropped."""
        state = cls()
        state.ingest_all(records)
        return state

    # -- ingestion ------------------------------------------------------
    def ingest(self, rec: Dict[str, Any]) -> None:
        self.records += 1
        kind = rec.get("kind", "?")
        self.kinds[kind] += 1
        if kind == META:
            return
        run = rec.get("run")
        self.runs.add(run)
        if kind.startswith("sched."):
            # Wall-clock time, so no part of any run's horizon.
            if kind == SCHED_DISPATCH:
                self.batch_size = rec.get("of", self.batch_size)
            elif kind == SCHED_OUTCOME and rec.get("ok") is False:
                self.failed += 1
            return
        t = rec.get("t", 0.0)
        if kind == RUN_END or t > self.horizon.get(run, 0.0):
            self.horizon[run] = max(self.horizon.get(run, 0.0), t)
        if kind in _DRAWN_KINDS and (run not in self.last_t
                                     or t > self.last_t[run]):
            self.last_t[run] = t

        if kind == QUEUE_SAMPLE:
            self.queues[(run, rec.get("link", "?"))].append(
                (t, rec.get("len", 0)))
        elif kind == CC_STATE:
            self.states[(run, rec.get("flow"))].append(
                (t, rec.get("state", "?")))
        elif kind in (CC_LOSS, CC_LOSS_RUNS):
            self.losses[(run, rec.get("flow"))].append(t)
        elif kind == CC_NFL:
            self.nfl[(run, rec.get("flow"))].append(rec)
        elif kind in (AUDIT_VIOLATION, AUDIT_DUMP):
            self.audit.append(rec)
        elif kind == RUN_START:
            for name, meta in (rec.get("links") or {}).items():
                rate = meta.get("rate") if isinstance(meta, dict) else None
                if rate:
                    self.link_rates[(run, name)] = rate
        elif kind == RUN_END:
            if run is None:
                self.complete = True
        elif kind == METRICS:
            snap = rec.get("metrics")
            snap = snap if isinstance(snap, dict) else {}
            if rec.get("scope") == "batch":
                self._batch_metrics = snap
                self.complete = True
            else:
                merge_snapshots(self._run_metrics, snap)
        elif kind == FLUID_RUN:
            self.fluid_meta = {k: rec.get(k)
                               for k in ("duration", "dt", "flows",
                                         "towers", "handovers")}
        elif kind == FLUID_TOWER:
            tower = rec.get("tower")
            self.towers[tower] = rec
            self.tower_waves[tower].append((t, rec.get("tbuff", 0.0)))
        elif kind == FLUID_END:
            self.fluid_jfi = rec.get("jfi")
            self.complete = True

    def ingest_all(self, records: List[Dict[str, Any]]) -> int:
        for rec in records:
            self.ingest(rec)
        return len(records)

    # -- reads ----------------------------------------------------------
    @property
    def metrics(self) -> Dict[str, Any]:
        """One aggregate snapshot: the batch record if present (it
        already merges the run records), else the fold of the run
        records."""
        if self._batch_metrics is not None:
            return self._batch_metrics
        return self._run_metrics

    def sampling_drops(self) -> Tuple[Dict[Tuple[str, str], float], float]:
        """Per (scope, kind) sampling-drop counters and their total."""
        per: Dict[Tuple[str, str], float] = {}
        total = 0.0
        for key, value in self.metrics.items():
            if isinstance(value, dict):
                continue
            if key.endswith("telemetry.dropped_events"):
                total += float(value)
                continue
            pos = key.find(DROP_MARKER)
            if pos < 0:
                continue
            scope = key[:pos].rstrip(".") or "?"
            kind = key[pos + len(DROP_MARKER):]
            per[(scope, kind)] = per.get((scope, kind), 0.0) + float(value)
        return per, total

    def state_dwell(self) -> Dict[Tuple[Any, Any], Dict[str, List[float]]]:
        """Per (run, flow): state -> [entries, total dwell seconds]; the
        state a flow ends in is closed at its run's horizon."""
        dwell: Dict[Tuple[Any, Any], Dict[str, List[float]]] = {}
        for key, curve in self.states.items():
            cells: Dict[str, List[float]] = {}
            prev: Optional[Tuple[float, str]] = None
            for t, state in curve:
                if prev is not None:
                    cells[prev[1]][1] += t - prev[0]
                cell = cells.setdefault(state, [0, 0.0])
                cell[0] += 1
                prev = (t, state)
            if prev is not None:
                end = self.horizon.get(key[0], prev[0])
                if end > prev[0]:
                    cells[prev[1]][1] += end - prev[0]
            dwell[key] = cells
        return dwell

    # -- drawing --------------------------------------------------------
    def legend(self) -> Dict[str, str]:
        """One letter per CC state across all runs, so lanes compare
        between runs; a state whose initial is taken gets the next
        free letter."""
        legend: Dict[str, str] = {}
        for s in sorted({s for curve in self.states.values()
                         for _, s in curve}):
            ch = s[0].upper()
            while ch in legend.values():
                ch = chr(ord(ch) + 1)
            legend[s] = ch
        return legend

    def panel(self, runs: Iterable[Any], width: int,
              height: int) -> List[str]:
        """The per-run lanes of ``runs``, then the legend.

        Per run: the bottleneck buffering-delay sawtooth per link
        (queue occupancy converted to delay at the link rate recorded
        by ``run.start``, or left in packets without one), then per
        flow its CC state lane and the columns in which ``cc.loss`` or
        ``cc.loss-runs`` fired — window-based senders have no state
        curve but still get the loss lane.  All lanes of a run share
        one time axis, so a buffer peak reads against the state the
        controller was in and the losses it took.
        """
        legend = self.legend()
        out: List[str] = []
        for run in sorted(runs, key=run_label):
            links = sorted(link for r, link in self.queues if r == run)
            flows = sorted({f for r, f in self.states if r == run} |
                           {f for r, f in self.losses if r == run}, key=str)
            spans: List[float] = []
            for link in links:
                q = self.queues[(run, link)]
                spans.extend((q[0][0], q[-1][0]))
            for flow in flows:
                curve = self.states.get((run, flow))
                if curve:
                    spans.extend((curve[0][0], curve[-1][0]))
            if not spans:
                continue
            t0, t1 = min(spans), max(spans)
            out.append(f"run {run_label(run)}  [{t0:.2f}s .. {t1:.2f}s]")
            for link in links:
                rate = self.link_rates.get((run, link))
                if rate:
                    per_pkt = PACKET_BYTES / rate
                    samples = [(t, n * per_pkt * 1000.0)
                               for t, n in self.queues[(run, link)]]
                    unit = "ms"
                else:
                    samples = [(t, float(n))
                               for t, n in self.queues[(run, link)]]
                    unit = "pkts"
                cols = _column_values(samples, t0, t1, width)
                vmax = max(cols) if cols else 0.0
                out.append(f"  {link}: buffering delay, peak {vmax:.1f} {unit}")
                for r, row in enumerate(_waveform_canvas(cols, vmax, height)):
                    label = (f"{vmax * (height - r) / height:7.1f} "
                             if vmax else "        ")
                    out.append(label + "|" + row)
                out.append("        +" + "-" * width)
            for flow in flows:
                curve = self.states.get((run, flow))
                if curve:
                    out.append(
                        f"  state  |{_state_lane(curve, legend, t0, t1, width)}"
                        f"  flow {flow}")
                marks = self.losses.get((run, flow))
                if marks:
                    out.append(f"  loss   |{_mark_lane(marks, t0, t1, width)}"
                               f"  flow {flow} ({len(marks)} cc.loss events)")
        if legend:
            out.append("legend: " + "  ".join(
                f"{ch}={s}" for s, ch in sorted(legend.items())))
        return out

    def tower_panel(self, width: int) -> List[str]:
        """Fluid-tier towers: latest buffering delay, capacity, flow
        count and an occupancy sparkline each."""
        head = "fluid towers"
        if self.fluid_meta:
            head += (f": {self.fluid_meta.get('flows')} flows / "
                     f"{self.fluid_meta.get('towers')} towers")
        if self.fluid_jfi is not None:
            head += f"  (done, JFI {self.fluid_jfi:.3f})"
        out = [head]
        towers = sorted(self.towers, key=str)
        spark_w = max(10, width - 52)
        vmax = max((rec.get("tbuff", 0.0) or 0.0
                    for rec in self.towers.values()), default=0.0)
        for tower in towers[:MAX_TOWERS]:
            rec = self.towers[tower]
            tail = list(self.tower_waves[tower])[-spark_w:]
            peak = max((v for _, v in tail), default=0.0) or vmax or 1.0
            spark = "".join(
                _EIGHTHS[min(8, int((v / peak) * 8 + 0.999))] if v > 0
                else _EIGHTHS[0]
                for _, v in tail)
            cap = rec.get("capacity") or 0.0
            out.append(
                f"  tower {tower!s:>4}  tbuff {1000 * (rec.get('tbuff') or 0):7.1f}ms"
                f"  cap {cap * 8 / 1e6:7.2f}Mbit/s"
                f"  flows {rec.get('flows', '?'):>4}  |{spark}|")
        if len(towers) > MAX_TOWERS:
            out.append(f"  ... {len(towers) - MAX_TOWERS} more towers")
        return out

    def render(self, width: int = 100, height: int = 6) -> str:
        """The dashboard frame: scheduler progress, the panel of the
        most recently active runs, fluid towers, the sampling total."""
        out: List[str] = []
        done = self.kinds[SCHED_OUTCOME]
        if self.kinds[SCHED_DISPATCH] or done:
            total = self.batch_size
            bar_w = max(10, width - 40)
            frac = min(1.0, done / total) if total else 0.0
            bar = "#" * int(frac * bar_w)
            line = f"sched [{bar:<{bar_w}}] {done}/{total or '?'} done"
            extras = [f"{k} {v}" for k, v in
                      (("retries", self.kinds[SCHED_RETRY]),
                       ("timeouts", self.kinds[SCHED_TIMEOUT]),
                       ("deaths", self.kinds[SCHED_WORKER_DEATH]),
                       ("failed", self.failed)) if v]
            if extras:
                line += "  (" + ", ".join(extras) + ")"
            out.append(line)

        active = sorted(self.last_t, key=self.last_t.get,
                        reverse=True)[:MAX_RUNS]
        out.extend(self.panel(active, width, height))
        hidden = len(self.last_t) - len(active)
        if hidden > 0:
            out.append(f"(+ {hidden} more runs not shown)")

        if self.towers:
            out.extend(self.tower_panel(width))
        per_kind: Dict[str, float] = {}
        for (_, kind), value in self.sampling_drops()[0].items():
            per_kind[kind] = per_kind.get(kind, 0.0) + value
        if per_kind:
            parts = ", ".join(f"{k}={int(v)}"
                              for k, v in sorted(per_kind.items()))
            out.append(f"sampling: {int(sum(per_kind.values()))} dropped "
                       f"({parts})")
        return "\n".join(out) if out else "(no renderable events yet)"


def _column_values(samples: Iterable[Tuple[float, float]], t0: float,
                   t1: float, width: int) -> List[float]:
    """Per-column peak of a (time, value) series over ``width`` time bins.

    Empty bins carry the previous sample forward, so a sparsely sampled
    waveform still renders as a continuous line.
    """
    cols: List[float] = []
    span = max(t1 - t0, 1e-9)
    it = iter(samples)
    nxt = next(it, None)
    last = 0.0
    for c in range(width):
        hi = t0 + (c + 1) * span / width
        peak = None
        while nxt is not None and nxt[0] <= hi:
            peak = nxt[1] if peak is None else max(peak, nxt[1])
            nxt = next(it, None)
        if peak is not None:
            last = peak
        cols.append(last)
    return cols


def _waveform_canvas(cols: List[float], vmax: float, height: int) -> List[str]:
    """Render column peaks as stacked eighth-block rows, top first."""
    rows: List[str] = []
    for r in range(height, 0, -1):
        line = []
        for v in cols:
            level = 0.0 if vmax <= 0 else v / vmax * height
            fill = level - (r - 1)
            if fill >= 1.0:
                line.append(_EIGHTHS[8])
            elif fill > 0.0:
                line.append(_EIGHTHS[max(1, int(fill * 8))])
            else:
                line.append(" ")
        rows.append("".join(line))
    return rows


def _state_lane(curve: Iterable[Tuple[float, str]], legend: Dict[str, str],
                t0: float, t1: float, width: int) -> str:
    """One character per column: the CC state active at the bin start."""
    span = max(t1 - t0, 1e-9)
    lane = []
    it = iter(curve)
    nxt = next(it, None)
    current = " "
    for c in range(width):
        at = t0 + c * span / width
        while nxt is not None and nxt[0] <= at:
            current = legend[nxt[1]]
            nxt = next(it, None)
        lane.append(current)
    return "".join(lane)


def _mark_lane(times: Iterable[float], t0: float, t1: float,
               width: int) -> str:
    """Mark the columns in which at least one event fired."""
    span = max(t1 - t0, 1e-9)
    lane = [" "] * width
    for t in times:
        c = int((t - t0) / span * width)
        if 0 <= c < width:
            lane[c] = "x"
        elif c == width:
            lane[width - 1] = "x"
    return "".join(lane)


def watch(path: str, interval: float = 1.0,
          frames: Optional[int] = None,
          width: int = 100, height: int = 6, once: bool = False,
          out: Optional[TextIO] = None, clear: bool = True,
          idle_exit: int = 3) -> str:
    """Follow a trace file and render the live dashboard until it completes.

    The trace at ``path`` (and the part files of a batch in flight) is
    tailed through :class:`TraceFollower`.  ``once`` drains whatever is
    available and renders a single frame (the CI smoke mode); it raises
    ``FileNotFoundError`` when there is no trace at ``path``.  Otherwise
    the dashboard waits for the file to appear, refreshes every
    ``interval`` seconds and exits on its own once the trace reports
    completion and ``idle_exit`` consecutive polls saw no new records
    (or after ``frames`` refreshes, if given).  Returns the final
    rendered frame.
    """
    stream = out if out is not None else sys.stdout
    follower = TraceFollower(path)
    if once:
        follower.require()
    state = TraceState(WAVE_SAMPLES)
    frame = ""
    drawn = 0
    idle = 0
    while True:
        fresh = state.ingest_all(follower.poll())
        idle = idle + 1 if fresh == 0 else 0
        status = (f"watch {path}  records {state.records}"
                  f"  runs {len(state.last_t)}"
                  f"{'  [complete]' if state.complete else ''}")
        frame = status + "\n" + state.render(width=width, height=height)
        if once:
            if fresh:
                continue  # keep draining until the tail is quiet
            stream.write(frame + "\n")
            stream.flush()
            return frame
        if clear:
            stream.write("\x1b[2J\x1b[H")
        stream.write(frame + "\n")
        stream.flush()
        drawn += 1
        if frames is not None and drawn >= frames:
            return frame
        if state.complete and idle >= idle_exit:
            return frame
        time.sleep(interval)
