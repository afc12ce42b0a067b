"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        one flow of a chosen algorithm over a chosen trace
``shootout``   the full Figure-7 line-up over a chosen trace
``frontier``   sweep PropRate's target buffer delay (Figure 10)
``grid``       the N×M contention/fairness grid (Figure 12
               generalized; see docs/contention_grid.md)
``reproduce``  regenerate paper artifacts and check their claims
               (all of them, or the ids given; see DESIGN.md §5)
``experiments`` list the artifact catalogue ``reproduce`` runs
``trace``      summarize (or diff) telemetry traces written with
               ``--telemetry`` (see docs/observability.md)
``watch``      auto-refreshing ASCII dashboard following a live
               ``--telemetry`` trace (queue sawtooth, CC state lane,
               scheduler progress, fluid tower occupancy)
``env``        control-plane environment (docs/env.md):
               ``env rollout`` drives one episode with a policy
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence, TextIO, Tuple

import repro.obs as obs
from repro.core.adaptive import AdaptivePropRate
from repro.core.proprate import PropRate
from repro.experiments.algorithms import CcFactory, paper_algorithms, run_shootout
from repro.experiments.frontier import sweep_frontier
from repro.experiments.options import OutcomeCallback, RunOptions
from repro.experiments.parallel import RunOutcome
from repro.experiments.runner import run_single_flow
from repro.fluid import fan_in_scenario, run_fluid
from repro.fluid.scenarios import FAN_IN_MIXES
from repro.obs.sink import trace_path
from repro.traces.presets import (
    TABLE2_TARGETS,
    isp_trace,
    lte_validation_trace,
    sprint_like_trace,
)
from repro.traces.trace import Trace

if TYPE_CHECKING:
    from repro.env import Policy

TRACE_CHOICES = [
    f"{isp}-{mode}" for isp, mode in sorted(TABLE2_TARGETS)
] + ["sprint", "lte-validation"]


def _load_traces(label: str) -> Tuple[Trace, Optional[Trace]]:
    if label == "sprint":
        return sprint_like_trace(duration=120.0), None
    if label == "lte-validation":
        return (
            lte_validation_trace(duration=60.0),
            lte_validation_trace(duration=60.0, direction="uplink"),
        )
    isp, mode = label.split("-", 1)
    return (
        isp_trace(isp, mode, duration=60.0),
        isp_trace(isp, mode, duration=60.0, direction="uplink"),
    )


def _algorithm_factory(name: str, target_ms: Optional[float]) -> CcFactory:
    if name.lower() == "proprate":
        target = (target_ms or 40.0) / 1000.0
        return lambda: PropRate(target_buffer_delay=target)
    if name.lower() in ("proprate-a", "adaptive", "adaptive-proprate"):
        target = (target_ms or 40.0) / 1000.0
        return lambda: AdaptivePropRate(target_buffer_delay=target)
    algorithms = paper_algorithms()
    if name in algorithms:
        return algorithms[name]
    raise SystemExit(
        f"unknown algorithm {name!r}; choose one of "
        f"{sorted(algorithms)} or 'PropRate [--target MS]'"
    )


def _progress_printer(total: int, stream: Optional[TextIO] = None) -> OutcomeCallback:
    """A ``done/total + ETA`` line, redrawn as each outcome lands.

    The returned callback plugs into the batch layer's ``on_outcome``
    hook; the ETA extrapolates from the mean completion rate so far,
    which is what a work-stealing queue makes meaningful (completions
    arrive roughly uniformly even on long-tailed grids).
    """
    stream = stream if stream is not None else sys.stderr
    start = time.monotonic()
    done = [0]

    def on_outcome(outcome: RunOutcome) -> None:
        done[0] += 1
        elapsed = time.monotonic() - start
        eta = elapsed / done[0] * (total - done[0])
        state = "ok" if outcome.ok else "FAILED"
        stream.write(
            f"\r[{done[0]}/{total}] {state} #{outcome.index}"
            f"  elapsed {elapsed:6.1f}s  eta {eta:6.1f}s "
        )
        if done[0] == total:
            stream.write("\n")
        stream.flush()

    return on_outcome


def _run_options(args: argparse.Namespace, total: int = 0) -> RunOptions:
    """The :class:`RunOptions` a parsed command line asks for.

    A flag the subcommand lacks stays at its ``RunOptions`` default, and
    an on/off flag left off is ``None`` — "defer to ``REPRO_*``".
    ``--sample``/``--profile`` with no tracer to serve them, a
    malformed ``--sample`` spec, or a ``--telemetry`` target that is not
    a file path, is a usage error
    here, before any trace is loaded; ``total`` sizes the
    progress line of a batch command.
    """
    options = RunOptions(
        audit=getattr(args, "audit", False) or None,
        telemetry=args.telemetry,
        sampling=args.sample,
        profile=args.profile or None,
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 0),
        on_outcome=(
            _progress_printer(total) if getattr(args, "progress", False)
            else None
        ),
    )
    try:
        obs.require_tracer(options.telemetry, options.sampling, options.profile)
        if options.sampling:
            obs.SamplingPolicy.parse(options.sampling)
        if options.telemetry is not None:
            trace_path(options.telemetry)
    except ValueError as err:
        args.usage_error(str(err))
    return options


def _cmd_run(args: argparse.Namespace) -> None:
    options = _run_options(args)
    downlink, uplink = _load_traces(args.trace)
    factory = _algorithm_factory(args.algorithm, args.target)
    result = run_single_flow(
        factory, downlink, uplink,
        duration=args.duration, measure_start=args.warmup,
        audit=options.audit,
        telemetry=options.telemetry,
        sampling=options.sampling,
        profile=options.profile,
    )
    print(
        f"{args.algorithm} on {args.trace}: "
        f"{result.throughput_kbps:.1f} KB/s, "
        f"mean {result.delay.mean_ms:.1f} ms, "
        f"p95 {result.delay.p95_ms:.1f} ms, "
        f"{result.bottleneck_drops} drops, {result.rto_count} RTOs"
    )


def _cmd_shootout(args: argparse.Namespace) -> None:
    options = _run_options(args, len(paper_algorithms()))
    downlink, uplink = _load_traces(args.trace)
    results = run_shootout(
        downlink, uplink,
        duration=args.duration, measure_start=args.warmup,
        n_jobs=args.jobs, run_options=options,
    )
    print(f"{'Algorithm':10s} {'tput KB/s':>10s} {'mean ms':>8s} {'p95 ms':>8s}")
    for name, result in results.items():
        print(
            f"{name:10s} {result.throughput_kbps:10.1f} "
            f"{result.delay.mean_ms:8.1f} {result.delay.p95_ms:8.1f}"
        )


def _cmd_frontier(args: argparse.Namespace) -> None:
    targets = [t / 1000.0 for t in range(args.low, args.high + 1, args.step)]
    options = _run_options(args, len(targets))
    downlink, uplink = _load_traces(args.trace)
    points = sweep_frontier(
        downlink, uplink, targets=targets,
        duration=args.duration, measure_start=args.warmup,
        n_jobs=args.jobs, run_options=options,
    )
    print(f"{'target ms':>9s} {'tput KB/s':>10s} {'mean ms':>8s} {'p95 ms':>8s}")
    for p in points:
        print(
            f"{p.target_tbuff * 1000:9.0f} {p.throughput_kbps:10.1f} "
            f"{p.mean_delay_ms:8.1f} {p.p95_delay_ms:8.1f}"
        )


def _cmd_grid(args: argparse.Namespace) -> None:
    # Lazy: the grid layer drags in the scheduler and report stack.
    from repro.experiments.contention_grid import (
        FULL_GRID,
        REDUCED_GRID,
        grid_size,
        run_grid,
    )
    from repro.report import render_grid_heatmaps, report_to_json

    config = REDUCED_GRID if args.reduced else FULL_GRID
    report = run_grid(
        config, n_jobs=args.jobs,
        run_options=_run_options(args, grid_size(config)),
    )
    print(render_grid_heatmaps(report))
    if args.out is not None:
        path = report_to_json(report.to_dict(), args.out)
        print(f"\nwrote {path}")


def _cmd_fluid(args: argparse.Namespace) -> None:
    from repro.report import render_fluid_towers, report_to_json

    options = _run_options(args)
    flows, towers, handovers = fan_in_scenario(
        args.flows, args.towers, args.duration, mix=args.mix,
        handover_count=args.handovers,
        tower_labels=tuple(args.tower_trace or ()),
        seed=args.seed,
    )
    try:
        report = run_fluid(
            flows, towers, args.duration, dt=args.dt,
            measure_start=args.warmup, handovers=handovers,
            telemetry=options.telemetry,
            sampling=options.sampling,
            profile=options.profile,
        )
    except ValueError as err:
        # run_fluid's input validation (--warmup against --duration,
        # --dt): a usage error, not a traceback.
        raise SystemExit(f"repro fluid: {err}")
    print(render_fluid_towers(report))
    if args.out is not None:
        path = report_to_json(report.to_dict(), args.out)
        print(f"\nwrote {path}")


def _build_env_policy(spec: str) -> Policy:
    # Lazy: keep repro.env off the import path of the other commands.
    from repro.env import AdaptiveTargetPolicy, ConstantRatePolicy, NativePolicy

    if spec == "native":
        return NativePolicy()
    if spec == "adaptive":
        return AdaptiveTargetPolicy()
    if spec.startswith("rate:"):
        return ConstantRatePolicy(float(spec[len("rate:"):]))
    raise SystemExit(
        f"unknown policy {spec!r}; choose 'native', 'adaptive' "
        "(needs a PropRate-family --algorithm), or 'rate:<bytes/s>'"
    )


def _cmd_env_rollout(args: argparse.Namespace) -> None:
    from repro.env import CcEnv, rollout

    options = _run_options(args)
    downlink, uplink = _load_traces(args.trace)
    inner = (
        None if args.algorithm.lower() == "none"
        else _algorithm_factory(args.algorithm, args.target)
    )
    policy = _build_env_policy(args.policy)
    env = CcEnv(
        downlink, uplink,
        inner_cc=inner,
        duration=args.duration,
        measure_start=args.warmup,
        step_interval=args.step_interval,
        audit=options.audit,
        telemetry=options.telemetry,
        sampling=options.sampling,
        profile=options.profile,
        name=args.algorithm,
    )
    out = rollout(env, policy)
    result = out.result
    print(
        f"{args.algorithm}/{args.policy} on {args.trace}: "
        f"{out.steps} steps, reward {out.total_reward:.2f}, "
        f"{result.throughput_kbps:.1f} KB/s, "
        f"mean {result.delay.mean_ms:.1f} ms, "
        f"p95 {result.delay.p95_ms:.1f} ms, "
        f"{result.bottleneck_drops} drops, {result.rto_count} RTOs"
    )
    final = out.final_obs
    print(
        f"final obs (v{final.version}): "
        + ", ".join(f"{k}={v:.4g}" for k, v in final.as_dict().items())
    )


def _cmd_reproduce(args: argparse.Namespace) -> None:
    # Lazy: the catalogue imports every artifact's dependencies.
    from repro.reproduce import EXPERIMENTS, reproduce

    unknown = [i for i in args.ids if i not in EXPERIMENTS]
    if unknown:
        args.usage_error(
            f"unknown experiment id(s) {', '.join(unknown)}; choose from "
            f"{', '.join(EXPERIMENTS)}")
    claims = reproduce(args.ids, jobs=args.jobs)
    failed = [c for c in claims if not c.passed]
    print(f"\n{len(claims) - len(failed)}/{len(claims)} claims hold "
          "(benchmarks/results/claims.json)")
    if failed:
        for claim in failed:
            print(f"FAILED {claim}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_experiments(args: argparse.Namespace) -> None:
    from repro.reproduce import describe_all

    print(describe_all())


def _cmd_trace(args: argparse.Namespace) -> None:
    # Lazy: the analyzer drags in numpy, which the tracer hot path and
    # the other commands should not pay for at import time.
    from repro.obs import analyze

    try:
        events = analyze.read_trace(args.path)
        other = None if args.diff is None else analyze.read_trace(args.diff)
    except (FileNotFoundError, ValueError) as err:
        # No trace at the path, or a malformed or truncated record (a
        # killed writer leaves one): name the file, not a traceback.
        raise SystemExit(f"repro trace: {err}")
    if args.profile:
        table = analyze.profile_table(events)
        print(table if table
              else "no profiling data in trace (run with --profile "
                   "or REPRO_PROFILE=1)")
    elif args.plot:
        print(analyze.render_plot(events, width=args.plot_width))
    elif other is not None:
        print(analyze.diff_traces(events, other,
                                  label_a=args.path, label_b=args.diff))
    else:
        print(analyze.summarize_trace(events, label=args.path))


def _cmd_watch(args: argparse.Namespace) -> None:
    # Lazy, like ``repro trace``: only the reading commands load the reader.
    from repro.obs.live import watch

    try:
        watch(
            args.path,
            interval=args.interval,
            frames=args.frames,
            width=args.width,
            height=args.height,
            once=args.once,
            clear=args.clear,
        )
    except FileNotFoundError as err:
        raise SystemExit(f"repro watch: {err}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PropRate (CoNEXT 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups, declared once and attached with ``parents=``.
    # The help strings point at the one place the settings are
    # documented: RunOptions (docs/api.md, "Run options").
    path_flags = argparse.ArgumentParser(add_help=False)
    path_flags.add_argument(
        "--trace", choices=TRACE_CHOICES, default="A-stationary")
    path_flags.add_argument("--duration", type=float, default=30.0)
    path_flags.add_argument("--warmup", type=float, default=4.0)

    observer_flags = argparse.ArgumentParser(add_help=False)
    observer_flags.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write a repro.obs JSONL telemetry trace to PATH (CC "
        "state/NFL/estimator events, queue samples, fluid.* and "
        "grid.cell records, metrics; batch commands merge worker "
        "traces into one file); inspect it with 'repro trace PATH' or "
        "follow it live with 'repro watch PATH'",
    )
    observer_flags.add_argument(
        "--sample", metavar="SPEC", default=None,
        help="per-event-kind sampling budgets for the telemetry "
        "trace, e.g. 'queue.sample:every=10;cc.nfl:interval=0.5;"
        "*:max=100000' (';'-separated kind:rule items, '*' is the "
        "default; drops are counted in run.telemetry.dropped.*); "
        "requires --telemetry",
    )
    observer_flags.add_argument(
        "--profile", action="store_true",
        help="attribute run time to subsystem phases (ACK path, "
        "link serve, delivery pump, scheduler dispatch, fluid "
        "integration); requires --telemetry; read the table with "
        "'repro trace PATH --profile'",
    )
    # The fluid tier has no auditor, so --audit rides one level up.
    audited_flags = argparse.ArgumentParser(
        add_help=False, parents=[observer_flags])
    audited_flags.add_argument(
        "--audit", action="store_true",
        help="run the repro.debug invariant auditor alongside every "
        "simulation (results are unchanged; violations abort and dump "
        "a flight-recorder trace that 'repro trace' reads)",
    )

    scheduler_flags = argparse.ArgumentParser(add_help=False)
    scheduler_flags.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial, 0 = all cores); results "
        "are identical at any job count",
    )
    scheduler_flags.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget; a run that exceeds it has "
        "its worker killed (--jobs >= 2) or is cut short by the "
        "engine's run deadline (serial) and reports a timeout",
    )
    scheduler_flags.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-dispatch a run lost to a timeout or worker crash "
        "up to N times before reporting the failure",
    )
    scheduler_flags.add_argument(
        "--no-progress", dest="progress", action="store_false",
        default=True,
        help="suppress the live done/total + ETA line on stderr",
    )

    p_run = sub.add_parser(
        "run", help="run one flow", parents=[path_flags, audited_flags])
    p_run.add_argument("algorithm", help="PropRate, CUBIC, BBR, Sprout, ...")
    p_run.add_argument("--target", type=float, default=None,
                       help="PropRate target buffer delay (ms)")
    p_run.set_defaults(func=_cmd_run)

    p_shoot = sub.add_parser(
        "shootout", help="Figure-7 line-up",
        parents=[path_flags, audited_flags, scheduler_flags],
    )
    p_shoot.set_defaults(func=_cmd_shootout)

    p_front = sub.add_parser(
        "frontier", help="Figure-10 sweep",
        parents=[path_flags, audited_flags, scheduler_flags],
    )
    p_front.add_argument("--low", type=int, default=12, help="lowest target (ms)")
    p_front.add_argument("--high", type=int, default=120, help="highest target (ms)")
    p_front.add_argument("--step", type=int, default=12, help="grid step (ms)")
    p_front.set_defaults(func=_cmd_frontier)

    p_grid = sub.add_parser(
        "grid", help="N×M contention/fairness grid (Figure 12 generalized)",
        parents=[audited_flags, scheduler_flags],
    )
    p_grid.add_argument(
        "--reduced", action="store_true",
        help="run the CI-sized subset (2 mixes × {2,4} flows × 1 wired "
        "trace) instead of the full grid",
    )
    p_grid.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the deterministic JSON artifact to PATH "
        "(cell schema: docs/contention_grid.md)",
    )
    p_grid.set_defaults(func=_cmd_grid)

    p_fluid = sub.add_parser(
        "fluid",
        help="flow-level fluid tier: cell-tower fan-in at thousands of "
        "flows (docs/fluid.md)",
        parents=[observer_flags],
    )
    p_fluid.add_argument(
        "--flows", type=int, default=1000,
        help="number of flows fanned into the towers (default 1000)",
    )
    p_fluid.add_argument(
        "--towers", type=int, default=8,
        help="number of cell towers (default 8)",
    )
    p_fluid.add_argument("--duration", type=float, default=30.0)
    p_fluid.add_argument("--warmup", type=float, default=5.0)
    p_fluid.add_argument(
        "--mix", choices=sorted(FAN_IN_MIXES), default="pr-vs-cubic",
        help="controller rotation across flows (default pr-vs-cubic)",
    )
    p_fluid.add_argument(
        "--handovers", type=int, default=0,
        help="handovers spread over the run, migrating flows between "
        "towers (default 0)",
    )
    p_fluid.add_argument(
        "--tower-trace", action="append", metavar="LABEL",
        help="tower capacity label ('wired:<N>mbps' or "
        "'cellular:<ISP>-<mode>'); repeat to cycle over towers "
        "(default: constant 12.5e6 B/s towers)",
    )
    p_fluid.add_argument(
        "--dt", type=float, default=0.005,
        help="integration step in seconds (default 0.005)",
    )
    p_fluid.add_argument(
        "--seed", type=int, default=0,
        help="deterministic scenario rotation seed (default 0)",
    )
    p_fluid.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the deterministic JSON artifact to PATH",
    )
    p_fluid.set_defaults(func=_cmd_fluid)

    p_env = sub.add_parser(
        "env",
        help="control-plane environment: step/observe/act over the "
        "packet tier (docs/env.md)",
    )
    env_sub = p_env.add_subparsers(dest="env_command", required=True)
    p_roll = env_sub.add_parser(
        "rollout", help="drive one episode of CcEnv with a policy",
        parents=[path_flags, audited_flags],
    )
    p_roll.add_argument(
        "--algorithm", default="proprate",
        help="inner algorithm the policy adapter wraps (PropRate, "
        "adaptive-proprate, CUBIC, ...; 'none' = externally driven "
        "rate, pair with --policy rate:<bytes/s>)",
    )
    p_roll.add_argument(
        "--target", type=float, default=None,
        help="PropRate target buffer delay (ms)",
    )
    p_roll.add_argument(
        "--policy", default="native",
        help="'native' (pure replay, bit-identical to the native run), "
        "'adaptive' (epoch-granular PR(A) target shrink/recovery), or "
        "'rate:<bytes/s>' (constant pacing override)",
    )
    p_roll.add_argument(
        "--step-interval", type=float, default=0.25, metavar="SECONDS",
        help="simulated seconds per env step (default 0.25, PropRate's "
        "feedback epoch)",
    )
    p_roll.set_defaults(func=_cmd_env_rollout)

    p_repro = sub.add_parser(
        "reproduce",
        help="regenerate paper artifacts into benchmarks/results/ and "
        "check their claims; exits 1 naming each failed claim",
    )
    p_repro.add_argument(
        "ids", nargs="*", metavar="ID",
        help="artifact ids (see 'repro experiments'; default: all)",
    )
    p_repro.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the batch-capable artifacts (1 = "
        "serial, 0 = all cores); results are identical at any job count",
    )
    p_repro.set_defaults(func=_cmd_reproduce)

    p_exp = sub.add_parser("experiments", help="the paper-artifact catalogue")
    p_exp.set_defaults(func=_cmd_experiments)

    p_trace = sub.add_parser(
        "trace", help="summarize or diff --telemetry JSONL traces"
    )
    p_trace.add_argument("path", help="trace file written with --telemetry")
    # One view per invocation: the summary, or exactly one of these.
    trace_view = p_trace.add_mutually_exclusive_group()
    trace_view.add_argument(
        "--diff", metavar="OTHER", default=None,
        help="compare against a second trace instead of summarizing",
    )
    trace_view.add_argument(
        "--plot", action="store_true",
        help="ASCII waveform view: buffer-delay sawtooth + state dwell",
    )
    p_trace.add_argument(
        "--plot-width", type=int, default=100, metavar="COLS",
        help="plot width in columns (default 100)",
    )
    trace_view.add_argument(
        "--profile", action="store_true",
        help="print the per-phase timing table recorded by --profile/"
        "REPRO_PROFILE runs instead of the summary",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_watch = sub.add_parser(
        "watch",
        help="auto-refreshing ASCII dashboard following a live "
        "--telemetry trace file (works on in-progress parallel/grid/"
        "fluid runs)",
    )
    p_watch.add_argument("path",
                         help="trace file a run is writing with "
                         "--telemetry (may not exist yet)")
    p_watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default 1.0)",
    )
    p_watch.add_argument(
        "--once", action="store_true",
        help="drain what is on disk, render one frame, and exit "
        "(CI smoke mode)",
    )
    p_watch.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="exit after N refreshes (default: until the run completes)",
    )
    p_watch.add_argument("--width", type=int, default=100, metavar="COLS")
    p_watch.add_argument("--height", type=int, default=6, metavar="ROWS")
    p_watch.add_argument(
        "--no-clear", dest="clear", action="store_false", default=True,
        help="append frames instead of clearing the screen between "
        "refreshes",
    )
    p_watch.set_defaults(func=_cmd_watch)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = build_parser()
    args = parser.parse_args(
        argv, namespace=argparse.Namespace(usage_error=parser.error))
    try:
        args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-report; not an error.
        sys.stderr.close()
        raise SystemExit(0)


if __name__ == "__main__":
    main(sys.argv[1:])
