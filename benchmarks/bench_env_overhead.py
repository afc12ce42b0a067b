"""CPU overhead of the CcEnv step/observe/act wrapper.

Runs the Table-4 single-flow workload (rate-based PropRate and
window-based CUBIC over the ISP-A stationary trace) natively and as an
env rollout replaying the same algorithms through the policy adapter
(``NativePolicy``: no external actions, pure replay).  The env face
must stay an always-affordable way to drive a run: the acceptance
bound is <=10% process-CPU overhead on this workload, asserted loosely
here (<50%) because shared CI boxes are noisy — the tight gate runs in
``scripts/perf_smoke.py --env-overhead``.

Methodology matches ``bench_audit_overhead``: ``time.process_time``
(wall clock is hopeless under background load), interleaved repeats so
drift hits both arms equally, min-of-repeats ratio to discard GC and
scheduler outliers.  The replayed results are also checked bit-equal
to the native ones, so the two arms provably did identical simulation
work (that contract itself is enforced by ``check_determinism.py
--env``).
"""

import time

from repro.env import CcEnv, rollout
from repro.experiments.algorithms import paper_algorithms
from repro.experiments.runner import canonical_summary, run_single_flow
from repro.traces.presets import isp_trace

from _report import emit

DURATION = 10.0
REPEATS = 3
ALGOS = ["PR(M)", "CUBIC"]


def _run_native(down, up, algos):
    summaries = []
    start = time.process_time()
    for name in ALGOS:
        result = run_single_flow(
            algos[name], down, up, duration=DURATION, measure_start=2.0,
        )
        summaries.append(canonical_summary(result.summary()))
    return time.process_time() - start, summaries


def _run_env(down, up, algos):
    summaries = []
    start = time.process_time()
    for name in ALGOS:
        env = CcEnv(
            down, up, inner_cc=algos[name],
            duration=DURATION, measure_start=2.0,
        )
        out = rollout(env)
        summaries.append(canonical_summary(out.result.summary()))
    return time.process_time() - start, summaries


def _measure():
    algos = paper_algorithms()
    down = isp_trace("A", "stationary", duration=60.0)
    up = isp_trace("A", "stationary", duration=60.0, direction="uplink")
    native_times, env_times = [], []
    native_sums = env_sums = None
    for _ in range(REPEATS):
        t, native_sums = _run_native(down, up, algos)
        native_times.append(t)
        t, env_sums = _run_env(down, up, algos)
        env_times.append(t)
    return native_times, env_times, native_sums, env_sums


def test_env_overhead():
    native, env, native_sums, env_sums = _measure()
    assert env_sums == native_sums, "env replay diverged from native run"
    base, wrapped = min(native), min(env)
    ratio = wrapped / base
    lines = [
        f"{'mode':10s} {'min s':>8s} {'all repeats (s)':>30s}",
        f"{'native':10s} {base:8.2f} "
        f"{'  '.join(f'{t:.2f}' for t in native):>30s}",
        f"{'env':10s} {wrapped:8.2f} "
        f"{'  '.join(f'{t:.2f}' for t in env):>30s}",
        f"overhead: {(ratio - 1) * 100:+.1f}% (min-of-{REPEATS} process "
        f"time, {'+'.join(ALGOS)} x {DURATION:.0f} sim-s, replay "
        f"bit-identical)",
    ]
    emit("env_overhead", lines)
    assert ratio < 1.5, f"env overhead {ratio:.2f}x exceeds the loose bound"
