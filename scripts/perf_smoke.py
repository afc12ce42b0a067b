#!/usr/bin/env python
"""CI perf-smoke gate: the Table-4 workload's simulation speed.

Runs a reduced pass of ``benchmarks/bench_table4_cpu.py``'s workload
(``SMOKE_DURATION`` simulated seconds over ``SMOKE_NAMES``) and
compares the simulated-seconds-per-wall-second rate against the
checked-in baseline, failing on a >30% regression.  (Earlier
revisions gated events/sec; batched delivery legitimately collapses
many small events into fewer large ones, so the gate now uses a metric
invariant to event granularity.)  The
baseline is deliberately taken on a slow reference host so that noisy
CI runners fail only on real regressions in the simulation hot path.

Any failing gate also writes a cProfile dump of the gated workload
next to the repo root (``perf_profile.pstats`` plus a human-readable
``perf_profile.txt``) so CI can upload it as an artifact.

The ``--telemetry-overhead`` mode gates the :mod:`repro.obs` telemetry
spine instead: it times the same workload with tracing off and on and
fails if the enabled-tracer CPU time exceeds the off run by more than
``TELEMETRY_TOLERANCE`` (the "bounded cost when on" half of the
observer-only contract; "zero cost when off" is covered by ``--check``
running without a tracer).

The ``--loss-check`` mode gates the heavy-loss recovery path instead:
``benchmarks/bench_sack_scoreboard.py``'s bursty-outage workload is the
worst case for sender ACK processing (every ACK walks the loss
scoreboard), and its ACKs-per-CPU-second against the checked-in
baseline catches regressions in the interval-run scoreboard that the
(mostly loss-free) Table-4 workload cannot see.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py --check     # CI gate
    PYTHONPATH=src python scripts/perf_smoke.py --update    # re-baseline
    PYTHONPATH=src python scripts/perf_smoke.py --telemetry-overhead
    PYTHONPATH=src python scripts/perf_smoke.py --telemetry-overhead --sampled
    PYTHONPATH=src python scripts/perf_smoke.py --loss-check
    PYTHONPATH=src python scripts/perf_smoke.py --loss-update
    PYTHONPATH=src python scripts/perf_smoke.py --env-overhead
    PYTHONPATH=src python scripts/perf_smoke.py --env-update

The ``--env-overhead`` mode gates the :mod:`repro.env` control-plane
wrapper: ``benchmarks/bench_env_overhead.py``'s workload runs the
Table-4 single-flow line-up natively and as a ``CcEnv`` rollout
replaying the same algorithms, and the gate fails if the env arm costs
more than ``env_overhead_tolerance`` (default 10%) extra CPU.  Like
the telemetry gate it compares interleaved paired process-time ratios,
so the figure is host independent; the baseline entry in
``perf_smoke.json`` records the reference ratio for drift tracking.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))  # bench modules + _report

import bench_env_overhead
import bench_sack_scoreboard
import bench_table4_cpu
from _report import dump_profile

BASELINE = REPO / "benchmarks" / "baselines" / "perf_smoke.json"
LOSS_BASELINE = REPO / "benchmarks" / "baselines" / "sack_scoreboard.json"
PROFILE_OUT = REPO / "perf_profile"

#: The gated Table-4 pass: a short transfer over members of both cost
#: classes (Table 4's cheap control loops and forecast/utility loops).
SMOKE_DURATION = 5.0
SMOKE_NAMES = ("PR(M)", "CUBIC", "BBR", "Sprout", "PCC", "Verus")

#: Simulated horizon of the gated heavy-loss scoreboard pass.
LOSS_HORIZON = 20.0

#: The two gated workloads as zero-argument calls (also what a failing
#: gate profiles).
run_smoke = functools.partial(
    bench_table4_cpu.run_workload, SMOKE_DURATION, SMOKE_NAMES)
run_loss = functools.partial(bench_sack_scoreboard.run_workload, LOSS_HORIZON)

#: Allowed slowdown relative to baseline before the gate fails.
TOLERANCE = 0.30

#: Allowed telemetry-on wall-time overhead vs telemetry-off.
TELEMETRY_TOLERANCE = 0.10

#: Allowed CcEnv-wrapper CPU overhead vs the native sender loop
#: (``--env-overhead``); recorded in the baseline as
#: ``env_overhead_tolerance`` alongside the reference ratio.
ENV_TOLERANCE = 0.10

#: Allowed overhead with per-kind sampling budgets active
#: (``--telemetry-overhead --sampled``): decimating the hot event
#: kinds must bring the tracer close to free, so the gate is tighter
#: than the full-firehose one.
SAMPLED_TOLERANCE = 0.05

#: Budget spec for the sampled gate: decimate the hot kinds, cap the
#: rest.  Protected kinds (meta/run/metrics records) always pass.
SAMPLED_SPEC = ("queue.sample:every=64;cc.loss-runs:every=16;"
                "cc.estimator:every=8;*:max=100000")


def measure() -> float:
    # One throwaway pass warms the trace cache and JIT-ish caches
    # (interned bytecode, numpy buffers), then the measured pass.
    bench_table4_cpu.sim_seconds_per_second(SMOKE_DURATION, SMOKE_NAMES)
    return bench_table4_cpu.sim_seconds_per_second(SMOKE_DURATION, SMOKE_NAMES)


def measure_loss() -> float:
    """Heavy-loss ACK throughput: ACKs processed per ACK-path CPU second
    on the bursty-outage scoreboard workload (min-of-N rounds)."""
    run_loss()  # warm-up pass
    stats = bench_sack_scoreboard.measure(LOSS_HORIZON, rounds=3)
    return stats["acks"] / stats["ack_cpu_s"]


def measure_env_overhead():
    """Interleaved native-vs-CcEnv repeats of the env overhead bench.

    Returns ``(overhead, native_times, env_times)`` where ``overhead``
    is the best paired per-round ratio minus one (same noise-damping
    rationale as the telemetry gate).  Aborts if the replayed results
    are not bit-identical to the native ones — in that case the CPU
    comparison is meaningless and ``check_determinism.py --env`` is the
    gate that should be failing.
    """
    native, env, native_sums, env_sums = bench_env_overhead._measure()
    if native_sums != env_sums:
        raise SystemExit(
            "env replay diverged from the native run; see "
            "scripts/check_determinism.py --env")
    overhead = min(e / n - 1.0 for n, e in zip(native, env))
    return overhead, native, env


def measure_telemetry_overhead(sampled: bool = False) -> int:
    """Gate: the Table-4 workload with a live tracer stays within
    ``TELEMETRY_TOLERANCE`` of the tracer-off cost.

    CPU (process) time is compared rather than wall clock, and off/on
    runs are interleaved with the minimum taken per arm: both choices
    damp co-tenant noise and frequency drift on shared CI runners,
    which otherwise dwarf a ~5% effect on a sub-second workload.

    ``sampled`` runs the tracer arm under :data:`SAMPLED_SPEC` budgets
    and gates at the tighter :data:`SAMPLED_TOLERANCE`, printing the
    per-kind drop counts so the thinning is never silent.
    """
    import repro.obs as obs

    spec = SAMPLED_SPEC if sampled else None
    tolerance = SAMPLED_TOLERANCE if sampled else TELEMETRY_TOLERANCE
    label = "sampled telemetry" if sampled else "telemetry"
    dropped: dict = {}

    run_smoke()  # warm-up: trace cache, imports, allocator
    scratch = tempfile.mkdtemp(prefix="repro-obs-")

    def timed(telemetry: bool, n: int) -> float:
        start = time.process_time()
        if telemetry:
            with obs.tracing(os.path.join(scratch, f"smoke{n}.jsonl"),
                             sampling=spec) as tracer:
                run_smoke()
                elapsed = time.process_time() - start
                # The runner drains the policy into run.telemetry.*
                # counters per run (reset-on-read), so read the drop
                # totals from the metrics registry, not the policy.
                marker = "telemetry.dropped."
                for key, value in tracer.metrics.snapshot().items():
                    pos = key.find(marker)
                    if pos >= 0 and not key.endswith("dropped_events"):
                        kind = key[pos + len(marker):]
                        dropped[kind] = max(dropped.get(kind, 0), value)
                return elapsed
        else:
            run_smoke()
        return time.process_time() - start

    rounds = 6 if sampled else 4  # tighter gate, more noise damping
    offs, ons = [], []
    for n in range(rounds):  # interleaved min-of-N absorbs the noise
        offs.append(timed(False, n))
        ons.append(timed(True, n))
    off, on = min(offs), min(ons)
    # Gate on the best *paired* ratio: adjacent off/on runs see the
    # same co-tenant load, so per-round ratios are immune to the slow
    # frequency drift that can inflate min(on)/min(off) on shared
    # runners; one clean round is enough to measure the true overhead.
    overhead = min(o / f - 1.0 for f, o in zip(offs, ons))
    verdict = "OK" if overhead <= tolerance else "FAILED"
    print(
        f"{label} overhead {verdict}: off {off:.2f}s, on {on:.2f}s "
        f"({overhead:+.1%}, tolerance {tolerance:.0%})"
    )
    if sampled:
        drops = ", ".join(f"{kind}={count}"
                          for kind, count in sorted(dropped.items()))
        print(f"  budgets {SAMPLED_SPEC!r} dropped: {drops or 'nothing'}")
    return 0 if overhead <= tolerance else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", action="store_true",
                       help="fail if events/sec regressed >30%% vs baseline")
    group.add_argument("--update", action="store_true",
                       help="rewrite the baseline from this host")
    group.add_argument(
        "--telemetry-overhead", action="store_true",
        help="fail if running with a live repro.obs tracer costs more "
        "than 10%% CPU time over the tracer-off run",
    )
    group.add_argument("--loss-check", action="store_true",
                       help="fail if heavy-loss ACK throughput regressed "
                       ">30%% vs baseline")
    group.add_argument("--loss-update", action="store_true",
                       help="rewrite the heavy-loss baseline from this host")
    group.add_argument(
        "--env-overhead", action="store_true",
        help="fail if driving the Table-4 line-up through the CcEnv "
        "step/observe/act wrapper costs more than 10%% CPU over the "
        "native sender loop",
    )
    group.add_argument(
        "--env-update", action="store_true",
        help="re-measure and record the env-overhead reference ratio "
        "in the perf_smoke baseline",
    )
    parser.add_argument(
        "--sampled", action="store_true",
        help="with --telemetry-overhead: run the tracer arm under "
        "per-kind sampling budgets and gate at the tighter 5%% "
        "tolerance, reporting per-kind drop counts",
    )
    args = parser.parse_args()
    if args.sampled and not args.telemetry_overhead:
        parser.error("--sampled only composes with --telemetry-overhead")

    if args.env_overhead or args.env_update:
        overhead, native, env = measure_env_overhead()
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() \
            else {}
        if args.env_update:
            baseline["env_overhead_ratio"] = round(1.0 + overhead, 3)
            baseline["env_overhead_tolerance"] = ENV_TOLERANCE
            BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
            print(f"env overhead baseline updated: {overhead:+.1%} "
                  f"-> {BASELINE}")
            return 0
        tolerance = baseline.get("env_overhead_tolerance", ENV_TOLERANCE)
        verdict = "OK" if overhead <= tolerance else "FAILED"
        print(
            f"env overhead {verdict}: native {min(native):.2f}s, "
            f"env {min(env):.2f}s ({overhead:+.1%}, "
            f"tolerance {tolerance:.0%}, baseline ratio "
            f"{baseline.get('env_overhead_ratio', 'unset')})"
        )
        return 0 if overhead <= tolerance else 1

    if args.telemetry_overhead:
        return measure_telemetry_overhead(sampled=args.sampled)

    if args.loss_check or args.loss_update:
        rate = measure_loss()
        if args.loss_update:
            LOSS_BASELINE.parent.mkdir(parents=True, exist_ok=True)
            LOSS_BASELINE.write_text(json.dumps({
                "acks_per_cpu_sec": round(rate),
                "workload": f"bench_sack_scoreboard {LOSS_HORIZON:.0f} s",
                "tolerance": TOLERANCE,
                "host": platform.platform(),
                "cpu_count": os.cpu_count(),
            }, indent=2) + "\n")
            print(f"loss baseline updated: {rate:,.0f} acks/cpu-sec "
                  f"-> {LOSS_BASELINE}")
            return 0
        baseline = json.loads(LOSS_BASELINE.read_text())
        floor = baseline["acks_per_cpu_sec"] * (1.0 - TOLERANCE)
        verdict = "OK" if rate >= floor else "FAILED"
        print(
            f"loss-recovery smoke {verdict}: {rate:,.0f} acks/cpu-sec "
            f"(baseline {baseline['acks_per_cpu_sec']:,}, floor {floor:,.0f})"
        )
        if rate < floor:
            dump_profile(run_loss, PROFILE_OUT, "loss-recovery")
            return 1
        return 0

    rate = measure()
    if args.update:
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        BASELINE.write_text(json.dumps({
            "sim_seconds_per_sec": round(rate, 2),
            "workload": f"bench_table4_cpu {SMOKE_DURATION:.0f} s x "
                        + "/".join(SMOKE_NAMES),
            "tolerance": TOLERANCE,
            "host": platform.platform(),
            "cpu_count": os.cpu_count(),
        }, indent=2) + "\n")
        print(f"baseline updated: {rate:,.2f} sim-sec/sec -> {BASELINE}")
        return 0

    baseline = json.loads(BASELINE.read_text())
    floor = baseline["sim_seconds_per_sec"] * (1.0 - TOLERANCE)
    verdict = "OK" if rate >= floor else "FAILED"
    print(
        f"perf smoke {verdict}: {rate:,.2f} sim-sec/sec "
        f"(baseline {baseline['sim_seconds_per_sec']:,}, floor {floor:,.2f})"
    )
    if rate < floor:
        dump_profile(run_smoke, PROFILE_OUT, "table4-sim-rate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
