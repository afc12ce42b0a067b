"""Execution-harness performance: event-loop rate and batch scaling.

Three probes for the PERF registry entry:

* a micro-benchmark of the simulator hot path (schedule / fire, cancel,
  and periodic-timer reschedule), reported as events per second;
* wall-clock for the same Figure-10-style frontier batch at
  ``n_jobs`` ∈ {1, 2, 4}, asserting that the results are bit-identical
  at every job count (determinism is the layer's core contract);
* a deliberately long-tailed synthetic grid (one spec ~8× the median
  duration) dispatched two ways — PR-1-style static pre-cut chunks
  versus the work-stealing per-spec queue — asserting the steal wins
  ≥20% of wall-clock.  The specs sleep rather than simulate, so the
  contrast measures *dispatch*, not the host's core count, and holds
  even on a single-core runner.

Speed-ups in the frontier sweep are only meaningful relative to the
host's core count, which is recorded alongside the numbers: on a
single-core runner those rows measure process-pool overhead, not
speed-up.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.experiments.frontier import sweep_frontier
from repro.experiments.parallel import run_batch
from repro.sim.engine import Simulator
from repro.traces.presets import isp_trace

from _report import emit

#: A small frontier grid keeps the 3-job-count sweep under a minute.
TARGETS = [t / 1000.0 for t in range(20, 101, 10)]
SWEEP_DURATION = 10.0
SWEEP_WARMUP = 2.0
JOB_COUNTS = (1, 2, 4)

EVENTS = 100_000

#: Long-tail dispatch probe: 16 specs, one ~8× the median duration —
#: the LTE-deep-buffer-CUBIC-vs-shallow-PR(M) shape, in miniature.
TAIL_WORKERS = 4
TAIL_SHORT_S = 0.10
TAIL_LONG_S = 0.80
TAIL_GRID = 16


def _engine_rates():
    """Events/sec for the three hot operations of the event loop."""
    rates = {}

    # Plain schedule + fire.
    sim = Simulator()
    fired = [0]

    def on_fire():
        fired[0] += 1

    for i in range(EVENTS):
        sim.schedule_at(i * 1e-6, on_fire)
    start = time.perf_counter()
    sim.run()
    rates["schedule+fire"] = fired[0] / (time.perf_counter() - start)

    # Lazy cancellation: half the scheduled events are cancelled before
    # the loop reaches them (the RTO re-arm pattern).
    sim = Simulator()
    events = [sim.schedule_at(i * 1e-6, on_fire) for i in range(EVENTS)]
    for event in events[::2]:
        event.cancel()
    start = time.perf_counter()
    sim.run()
    rates["cancel-half"] = EVENTS / (time.perf_counter() - start)

    # Reschedule in place (the pacing-tick pattern).
    sim = Simulator()
    ticks = [0]

    def on_tick():
        ticks[0] += 1
        if ticks[0] < EVENTS:
            sim.reschedule(timer, 1e-6)

    timer = sim.schedule(1e-6, on_tick)
    start = time.perf_counter()
    sim.run()
    rates["reschedule"] = ticks[0] / (time.perf_counter() - start)
    return rates


def _frontier_times():
    """(n_jobs → seconds, points) for the same batch at each job count."""
    down = isp_trace("A", "mobile", duration=30.0)
    up = isp_trace("A", "mobile", duration=30.0, direction="uplink")
    timings = {}
    reference = None
    for n_jobs in JOB_COUNTS:
        start = time.perf_counter()
        points = sweep_frontier(
            down, up, targets=TARGETS,
            duration=SWEEP_DURATION, measure_start=SWEEP_WARMUP,
            n_jobs=n_jobs,
        )
        timings[n_jobs] = time.perf_counter() - start
        key = [(p.throughput_kbps, p.mean_delay_ms, p.p95_delay_ms) for p in points]
        if reference is None:
            reference = key
        else:
            assert key == reference, f"n_jobs={n_jobs} changed the results"
    return timings


@dataclass(frozen=True)
class _SleepSpec:
    """Wall-clock payload without simulation cost: a dispatch probe."""

    seconds: float
    tag: int

    def execute(self):
        time.sleep(self.seconds)
        return self.tag


def _tail_specs():
    # The long spec is submitted first — the *favourable* placement for
    # static chunking, which still loses because its chunk serializes
    # the long run behind/ahead of its chunk-mates.
    specs = [_SleepSpec(TAIL_LONG_S, 0)]
    specs += [_SleepSpec(TAIL_SHORT_S, i) for i in range(1, TAIL_GRID)]
    return specs


def _run_chunk(chunk):
    return [spec.execute() for spec in chunk]


def _static_chunk_wall(specs, jobs):
    """The PR-1 dispatch model: contiguous chunks pre-cut per worker."""
    chunksize = math.ceil(len(specs) / jobs)
    chunks = [
        specs[i : i + chunksize] for i in range(0, len(specs), chunksize)
    ]
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for future in [pool.submit(_run_chunk, c) for c in chunks]:
            future.result()
    return time.perf_counter() - start


def _stealing_wall(specs, jobs):
    """The scheduler under test: per-spec queue, idle workers steal."""
    start = time.perf_counter()
    outcomes = run_batch(specs, n_jobs=jobs)
    elapsed = time.perf_counter() - start
    assert all(o.ok for o in outcomes)
    return elapsed


def _long_tail_times():
    specs = _tail_specs()
    return (
        _static_chunk_wall(specs, TAIL_WORKERS),
        _stealing_wall(specs, TAIL_WORKERS),
    )


def test_parallel_scaling():
    rates = _engine_rates()
    timings = _frontier_times()
    static_s, steal_s = _long_tail_times()

    lines = [f"host cores: {os.cpu_count()}"]
    lines.append("-- event loop --")
    for op, rate in rates.items():
        lines.append(f"{op:15s} {rate / 1e6:8.2f} M events/s")
    lines.append(f"-- frontier batch ({len(TARGETS)} runs) --")
    serial = timings[JOB_COUNTS[0]]
    for n_jobs, seconds in timings.items():
        lines.append(
            f"n_jobs={n_jobs}  {seconds:7.2f} s  speedup {serial / seconds:5.2f}x"
        )
    lines.append(
        f"-- long-tailed grid ({TAIL_GRID} specs, one {TAIL_LONG_S / TAIL_SHORT_S:.0f}x "
        f"median, {TAIL_WORKERS} workers) --"
    )
    lines.append(f"static chunks   {static_s:7.2f} s")
    lines.append(
        f"work-stealing   {steal_s:7.2f} s  ({(1 - steal_s / static_s) * 100:4.1f}% faster)"
    )
    emit("parallel_scaling", lines)

    # Sanity floors, far below any real machine, to catch regressions
    # that make the loop pathological rather than to measure the host.
    assert rates["schedule+fire"] > 1e4
    assert all(seconds > 0 for seconds in timings.values())
    # The dispatch contrast is the point of the rewrite: stealing must
    # beat static pre-cut chunking by ≥20% on the long-tailed grid.
    assert steal_s <= 0.80 * static_s, (static_s, steal_s)
