#!/usr/bin/env python
"""CI determinism gates for the batch scheduler, the grid and the env.

Default mode — the batch layer's core promise: ``run_batch(...,
n_jobs=1)`` and ``n_jobs=4`` produce bit-identical ``FlowResult``
summaries, whatever order the work-stealing queue completes specs in.
This script runs a small Figure-10 frontier grid both ways (plus the
streaming ``iter_frontier`` face) and fails loudly on the first
diverging field.

``--contention`` mode — the same promise at N flows: the reduced
contention grid's JSON artifact, audited, is byte-identical between
``run_grid(n_jobs=1)`` and ``n_jobs=4``.

``--env`` mode — the control-plane environment's core promise
(docs/env.md): a :class:`repro.env.CcEnv` rollout that replays a native
algorithm through the policy adapter is bit-identical to the native
``run_single_flow`` run (checked for rate-based PropRate and
window-based CUBIC on the outage-heavy mobile trace), and the
adaptive-target algorithm ``PR(A)`` — the env's flagship policy — is
bit-identical between ``run_batch(n_jobs=1)`` and ``n_jobs=4``.

(That the batched delivery engine agrees with the one-opportunity-per-
event reference link is a tier-1 test, ``tests/test_fastpath.py``.)

The summary comparisons are *canonical*
(:func:`repro.experiments.runner.canonical_summary`): a starved flow's
delay statistics are NaN, and ``nan != nan`` would make bit-identical
runs falsely diverge under plain tuple equality.

Usage::

    PYTHONPATH=src python scripts/check_determinism.py
    PYTHONPATH=src python scripts/check_determinism.py --contention
    PYTHONPATH=src python scripts/check_determinism.py --env
"""

from __future__ import annotations

import sys

TARGETS = [0.020, 0.040, 0.060, 0.080]
DURATION = 6.0
WARMUP = 1.0


def check_scheduler() -> int:
    from repro.experiments.frontier import iter_frontier, sweep_frontier
    from repro.experiments.options import RunOptions
    from repro.experiments.runner import canonical_summary
    from repro.traces.presets import isp_trace

    down = isp_trace("A", "mobile", duration=20.0)
    up = isp_trace("A", "mobile", duration=20.0, direction="uplink")
    kwargs = dict(
        targets=TARGETS, duration=DURATION, measure_start=WARMUP
    )

    serial = sweep_frontier(down, up, n_jobs=1, **kwargs)
    retry = RunOptions(retries=1)
    parallel = sweep_frontier(down, up, n_jobs=4, run_options=retry, **kwargs)
    streamed = sorted(
        iter_frontier(down, up, n_jobs=4, run_options=retry, **kwargs),
        key=lambda p: p.target_tbuff,
    )

    failures = 0
    for label, candidate in (("n_jobs=4", parallel), ("iter_frontier", streamed)):
        for ref, got in zip(serial, candidate):
            if (canonical_summary(ref.result.summary())
                    != canonical_summary(got.result.summary())):
                failures += 1
                print(
                    f"DIVERGENCE [{label}] target "
                    f"{ref.target_tbuff * 1000:.0f}ms:\n"
                    f"  serial:   {ref.result.summary()}\n"
                    f"  parallel: {got.result.summary()}",
                    file=sys.stderr,
                )
    if failures:
        print(f"determinism gate FAILED: {failures} diverging points",
              file=sys.stderr)
        return 1
    print(
        f"determinism gate OK: {len(TARGETS)} frontier points bit-identical "
        f"across n_jobs=1, n_jobs=4, and streaming collection"
    )
    return 0


def check_contention() -> int:
    import json

    from repro.experiments.contention_grid import REDUCED_GRID, run_grid
    from repro.experiments.options import RunOptions

    # to_dict carries no wall-clock, so this comparison is exact.
    serial = json.dumps(
        run_grid(
            REDUCED_GRID, n_jobs=1, run_options=RunOptions(audit=True),
        ).to_dict(),
        sort_keys=True,
    )
    parallel = json.dumps(
        run_grid(
            REDUCED_GRID, n_jobs=4,
            run_options=RunOptions(audit=True, retries=1),
        ).to_dict(),
        sort_keys=True,
    )
    if serial != parallel:
        print("DIVERGENCE [grid] reduced-grid JSON differs between "
              "n_jobs=1 and n_jobs=4", file=sys.stderr)
        print("contention gate FAILED", file=sys.stderr)
        return 1
    print("contention gate OK: reduced grid byte-identical "
          "serial-vs-parallel")
    return 0


#: --env replay leg: one rate-based and one window-based algorithm, so
#: both policy adapters are under the bit-identity contract.
ENV_REPLAY_ALGOS = ["PR(M)", "CUBIC"]


def check_env() -> int:
    from repro.env import CcEnv, rollout
    from repro.experiments.algorithms import ADAPTIVE_NAME, paper_algorithms
    from repro.experiments.options import RunOptions
    from repro.experiments.parallel import CcSpec, RunSpec, run_batch
    from repro.experiments.runner import canonical_summary, run_single_flow
    from repro.traces.cache import as_ref
    from repro.traces.presets import isp_trace

    algos = paper_algorithms()
    down = isp_trace("A", "mobile", duration=20.0)
    up = isp_trace("A", "mobile", duration=20.0, direction="uplink")
    failures = 0

    # Leg 1: env rollout replaying a native algorithm == the native run.
    for name in ENV_REPLAY_ALGOS:
        native = run_single_flow(
            algos[name], down, up, duration=DURATION, measure_start=WARMUP
        )
        env = CcEnv(
            down, up, inner_cc=algos[name],
            duration=DURATION, measure_start=WARMUP,
        )
        replay = rollout(env).result
        if (canonical_summary(native.summary())
                != canonical_summary(replay.summary())):
            failures += 1
            print(
                f"DIVERGENCE [env-replay] {name}:\n"
                f"  native: {native.summary()}\n"
                f"  env:    {replay.summary()}",
                file=sys.stderr,
            )

    # Leg 2: the adaptive-target algorithm is deterministic across the
    # batch scheduler, like every other shootout entry.
    down_ref = as_ref(down)
    up_ref = as_ref(up)
    specs = [
        RunSpec(
            cc=CcSpec(ADAPTIVE_NAME, (("target_buffer_delay", t),)),
            downlink=down_ref, uplink=up_ref,
            duration=DURATION, measure_start=WARMUP,
            name=f"PR(A)-{t * 1000:.0f}ms",
        )
        for t in TARGETS
    ]
    serial = [o.result for o in run_batch(specs, n_jobs=1)]
    parallel = [o.result for o in run_batch(
        specs, n_jobs=4, run_options=RunOptions(retries=1))]
    for spec, ref, got in zip(specs, serial, parallel):
        if (canonical_summary(ref.summary())
                != canonical_summary(got.summary())):
            failures += 1
            print(
                f"DIVERGENCE [env-adaptive] {spec.name}:\n"
                f"  n_jobs=1: {ref.summary()}\n"
                f"  n_jobs=4: {got.summary()}",
                file=sys.stderr,
            )

    if failures:
        print(f"env gate FAILED: {failures} divergences", file=sys.stderr)
        return 1
    print(
        f"env gate OK: {len(ENV_REPLAY_ALGOS)} native replays "
        f"bit-identical through CcEnv; {len(TARGETS)} PR(A) runs "
        f"bit-identical across n_jobs=1 and n_jobs=4"
    )
    return 0


def main() -> int:
    if "--contention" in sys.argv[1:]:
        return check_contention()
    if "--env" in sys.argv[1:]:
        return check_env()
    return check_scheduler()


if __name__ == "__main__":
    raise SystemExit(main())
