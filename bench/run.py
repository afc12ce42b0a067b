#!/usr/bin/env python3
"""The simulator's benchmark: seven workloads, end-to-end and per-layer
metrics, a traced run.

Two ways in (details in ``bench/README.md``):

* the driver's contract — one workload per process, one JSON line out::

      python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

* the suite — every workload in its own fresh subprocess, one record::

      python3 bench/run.py [--seed S] [--only NAME] [--traced] [--out FILE]
      python3 bench/run.py --self-check        # two suites through compare.py
"""

from __future__ import annotations

from time import perf_counter

SCRIPT_START = perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space for telemetry traces and child records: inside the
#: checkout (the driver allows no writes outside it), git-ignored,
#: removed when the run ends.
SCRATCH = ROOT / ".bench_tmp"

sys.path.insert(0, str(BENCH))
import schema  # noqa: E402

#: Set-up is measured this many times per run (this process plus fresh
#: probe processes) and reported as the median.
SETUP_SAMPLES = 3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(schema.WORKLOADS),
                        help="measure this one workload in this process "
                        "and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset of every generated input's seed "
                        "(0 = the checked-in presets)")
    parser.add_argument("--seconds", type=float, default=schema.RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced run, print the "
                        "per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every simulated duration (tests "
                        "use 0.05)")
    parser.add_argument("--record", help="with --workload: also write the "
                        "full record of the run to this file")
    parser.add_argument("--spans", help="traced run(s): write aggregated "
                        "and raw spans here (suite: a directory)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--only", action="append", metavar="WORKLOAD",
                        choices=list(schema.WORKLOADS),
                        help="suite: run only this workload (repeatable)")
    parser.add_argument("--traced", action="store_true",
                        help="suite: also make the traced run of each "
                        "workload and print the per-layer table")
    parser.add_argument("--out", help="suite: write the record here")
    parser.add_argument("--self-check", action="store_true",
                        help="run the suite twice (traced) and compare "
                        "the two records")
    parser.add_argument("--emit-benchmark-json", action="store_true",
                        help="print the contents of BENCHMARK.json")
    return parser.parse_args(argv)


def require_program() -> None:
    """The program under test is built from ``src/`` of this checkout;
    without it there is nothing to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {SRC / 'repro'} "
                         "is missing")
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# The driver's contract: one workload, one JSON line
# ----------------------------------------------------------------------
def child_command(args: argparse.Namespace, workload: str) -> List[str]:
    return [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--scale", str(args.scale)]


def probe_setup(args: argparse.Namespace) -> Optional[float]:
    """Set-up time of a fresh process: imports, input synthesis,
    scenario build, warm-up pass."""
    done = subprocess.run(
        child_command(args, args.workload) + ["--setup-probe"],
        capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args: argparse.Namespace) -> int:
    require_program()
    import harness

    record = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.scale, SCRIPT_START, str(SCRATCH), spans_path=args.spans,
        setup_only=args.setup_probe)
    if args.setup_probe:
        print(json.dumps(record))
        return 0

    if not args.trace:
        setups = record["end_to_end"]["setup_s"]["values"]
        for _ in range(SETUP_SAMPLES - 1):
            probed = probe_setup(args)
            if probed is not None:
                setups.append(probed)
        record["end_to_end"]["setup_s"].update(
            harness.quartiles(setups, "setup_s"))

    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)

    if args.trace:
        # A layer the run never entered has no value; the driver's line
        # wants a number for every metric, so absence reads 0 there and
        # null in the full record (bench.missing_targets tells them apart).
        metrics = {name: {"value": entry["value"] or 0, "unit": entry["unit"]}
                   for name, entry in record["per_layer"].items()}
    else:
        metrics = {name: {"value": record["end_to_end"][name]["value"],
                          "unit": unit}
                   for name, unit, _better, _bound in schema.END_TO_END}
    for failure in record["failures"]:
        sys.stderr.write(f"bench: {args.workload}: {failure}\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# The suite: every workload in a fresh subprocess, one record
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, Any]:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
    }


def run_child(args: argparse.Namespace, workload: str, traced: bool,
              scratch: str) -> Dict[str, Any]:
    """One workload run in a fresh process; its full record."""
    record_path = os.path.join(scratch, f"{workload}-{int(traced)}.json")
    command = child_command(args, workload) + [
        "--trace", str(int(traced)), "--record", record_path]
    if traced and args.spans:
        os.makedirs(args.spans, exist_ok=True)
        command += ["--spans", os.path.join(args.spans, workload + ".json")]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0 or not os.path.exists(record_path):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: {workload} exited with {done.returncode}")
    with open(record_path, encoding="utf-8") as fh:
        return json.load(fh)


def fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def print_workload(entry: Dict[str, Any]) -> None:
    print(f"\n== {entry['workload']}  (seed {entry['seed']}, "
          f"{entry['passes']} passes, {entry['failed']}/{entry['attempted']} "
          f"ops failed, digest {entry['result_digest'][:12]})")
    for name, m in entry["end_to_end"].items():
        print(f"  {name:<24} {fmt(m['value']):>10} {m['unit']:<6} "
              f"[median {fmt(m['median'])}, q1 {fmt(m['q1'])}, "
              f"q3 {fmt(m['q3'])}, n={m['n']}]")
    layers = entry.get("per_layer")
    if layers:
        print("  -- per layer (traced run) --")
        for name, m in layers.items():
            if m["value"] is not None:
                print(f"  {name:<40} {fmt(m['value']):>12} {m['unit']}")


def merge_traced(entry: Dict[str, Any], traced: Dict[str, Any],
                 quartiles: Any) -> None:
    """Fold a workload's traced run into its record: the per-layer
    table, and the traced run's own output checks."""
    for key in ("per_layer", "spans_summary", "counts_repeat"):
        entry[key] = traced[key]
    entry["traced_digest_matches"] = (
        traced["result_digest"] == entry["result_digest"])
    entry["traced_failed"] = traced["failed"]
    if entry["traced_digest_matches"] and not traced["failed"]:
        return
    entry["failed"] += max(1, traced["failed"])
    entry["attempted"] += traced["attempted"]
    entry["correct"] = False
    entry["failures"] += traced["failures"][:3] or [
        "traced run's result digest differs"]
    entry["end_to_end"]["failed_share"].update(
        quartiles([entry["failed"] / entry["attempted"]], "failed_share"))


def run_suite(args: argparse.Namespace) -> Dict[str, Any]:
    require_program()
    import harness

    record: Dict[str, Any] = {
        "format": "repro.bench/1",
        "command": " ".join(["python3", "bench/run.py"] + sys.argv[1:]),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "host": host_fingerprint(),
        "bounds": {
            **{n: {"bound": bound, "kind": "relative", "better": better}
               for n, _u, better, bound in schema.END_TO_END},
            **{n: {"bound": bound, "kind": kind, "better": better}
               for n, _u, better, bound, kind, _on
               in schema.WORKLOAD_END_TO_END},
        },
        "exact": list(schema.EXACT),
        "workloads": {},
    }
    load_start = os.getloadavg()[0]
    spin_start = harness.spin_mops(1.0)
    with harness.scratch_dir(str(SCRATCH), "suite-") as scratch:
        for name in args.only or list(schema.WORKLOADS):
            entry = run_child(args, name, False, scratch)
            if args.traced:
                merge_traced(entry, run_child(args, name, True, scratch),
                             harness.quartiles)
            record["workloads"][name] = entry
            print_workload(entry)
    spin_end = harness.spin_mops(1.0)
    record["host"].update({
        "load_1min_start": load_start,
        "load_1min_end": os.getloadavg()[0],
        "host_spin_mops_start": spin_start,
        "host_spin_mops_end": spin_end,
    })
    record["noisy"] = (abs(spin_end - spin_start)
                       / max(spin_start, spin_end) > 0.10)
    print(f"\nhost spin {spin_start:.2f} -> {spin_end:.2f} Mops/s"
          + ("  (NOISY: more than 10 % apart)" if record["noisy"] else ""))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print(f"record written to {args.out}")
    return record


def self_check(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code must agree within the
    benchmark's own bounds."""
    import compare

    args.traced = True
    out = args.out
    args.out = None
    first = run_suite(args)
    second = run_suite(args)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"first": first, "second": second}, fh, indent=1)
    rows, status = compare.compare(first, second)
    compare.print_rows(rows)
    problems = compare.exact_differences(first, second)
    for problem in problems:
        print("DIFFERS: " + problem)
    return 1 if status or problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.emit_benchmark_json:
        print(json.dumps(schema.benchmark_json(), indent=2))
        return 0
    if args.workload:
        return run_workload(args)
    if args.self_check:
        return self_check(args)
    record = run_suite(args)
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
