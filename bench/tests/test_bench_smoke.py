"""Smoke tests of the benchmark itself, at ``--scale 0.05`` sizes
(0.3 for the batch workload).

    python -m pytest bench/tests -q          # < 60 s

They check the record's shape against ``schema``/``BENCHMARK.json``, the
span accounting of a traced run, that ``--seed`` reaches every generated
input, that a vanished wrap target reads ``null`` instead of crashing,
and that a failing op is counted, not fatal.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import harness
import schema
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent
SCALE = 0.05
#: Mobile traces of a quarter second are all dead air or all burst; the
#: batch workload needs runs long enough for a usable draw to exist.
SCALES = {"batch_nfl_sweep": 0.3}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def measure(name, tmp_path, traced=True, seed=0, seconds=0.2):
    return harness.measure(name, seed, seconds, traced,
                           SCALES.get(name, SCALE), perf_counter(),
                           str(tmp_path / "scratch"))


def pass_digest(name, seed, tmp_path):
    ctx = workloads.Context(str(tmp_path))
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, SCALES.get(name, SCALE), 1, ctx)
    done = harness.run_pass(workload, ctx)
    assert not done["errors"], done["errors"]
    return done["digest"]


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_schema_and_within_the_contract():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert len(text) <= 64 * 1024
    declared = json.loads(text)
    assert declared == schema.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert 2 <= len(declared["workloads"]) <= 8
    assert len(declared["end_to_end"]) <= 16 and len(declared["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_holds_exactly_the_declared_metrics(trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "applimited_burst", "--seed", "3", "--seconds", "0.2", "--scale",
         str(SCALE), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    declared = schema.PER_LAYER if trace else schema.END_TO_END
    assert list(line["metrics"]) == [m[0] for m in declared]
    for name, unit, *_rest in declared:
        entry = line["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, name


# ----------------------------------------------------------------------
# traced runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(schema.WORKLOADS))
def test_traced_record_and_span_accounting(name, tmp_path):
    record = measure(name, tmp_path)
    assert record["failed"] == 0, record["failures"]
    assert record["correct"] and record["counts_repeat"] is True
    assert record["passes"] >= harness.TRACED_MIN_UNTRACED
    assert list(record["per_layer"]) == [m[0] for m in schema.PER_LAYER]
    expected = {m[0] for m in schema.END_TO_END} | {"failed_share"}
    expected |= {m[0] for m in schema.WORKLOAD_END_TO_END
                 if m[5] and name in m[5]}
    assert set(record["end_to_end"]) == expected
    assert record["end_to_end"]["failed_share"]["median"] == 0

    summary = record["spans_summary"]
    for row in summary["aggregate"]:
        assert row["self_s"] <= row["inclusive_s"] + 1e-9, row
        assert row["calls"] > 0
    assert sum(summary["layers"].values()) <= summary["pass_wall_s"]
    assert summary["missing"] == []

    layers = record["per_layer"]
    assert layers["bench.span_overhead_frac"]["value"] is not None
    packet_only = [n for n in layers if n.split(".")[0] in ("sim", "tcp", "core")]
    if name in schema.FLUID_WORKLOADS:
        assert all(layers[n]["value"] is None for n in packet_only)
        assert layers["fluid.engine.steps"]["value"] > 0
        assert layers["fluid.controllers.calls"]["value"] > 0
    else:
        assert layers["sim.engine.events"]["value"] > 0
        assert layers["tcp.receiver.data_pkts"]["value"] > 0
        assert layers["fluid.engine.run_s"]["value"] is None


def test_workload_specific_layers_show_up_where_they_should(tmp_path):
    burst = measure("applimited_burst", tmp_path)["per_layer"]
    assert burst["tcp.application.segments"]["value"] > 0
    batch = measure("batch_nfl_sweep", tmp_path)
    assert batch["per_layer"]["experiments.parallel.specs"]["value"] == 18
    assert batch["per_layer"]["experiments.parallel.attempts"]["value"] == 18
    assert batch["end_to_end"]["tbuff_track_err_ms"]["median"] > 0
    assert batch["attempted"] == 18 * (1 + batch["passes"] + harness.TRACED_PASSES)
    observed = measure("bulk_observed", tmp_path)["per_layer"]
    assert observed["obs.emit_calls"]["value"] > 0
    assert observed["obs.trace_bytes_per_flow_s"]["value"] > 0
    assert observed["debug.audit_overhead_frac"]["value"] is not None


# ----------------------------------------------------------------------
# seeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(schema.WORKLOADS))
def test_seed_reaches_the_inputs(name, tmp_path):
    base = pass_digest(name, 0, tmp_path)
    assert pass_digest(name, 0, tmp_path) == base
    assert pass_digest(name, 1, tmp_path) != base


# ----------------------------------------------------------------------
# robustness of the benchmark itself
# ----------------------------------------------------------------------
def test_vanished_wrap_target_reads_null(monkeypatch, tmp_path):
    import repro.fluid.controllers as controllers

    monkeypatch.delattr(controllers, "ControllerBank")
    record = measure("fluid_fanin", tmp_path)
    assert record["correct"], record["failures"]
    assert record["per_layer"]["fluid.controllers.calls"]["value"] is None
    assert record["per_layer"]["fluid.controllers.self_s"]["value"] is None
    assert record["per_layer"]["bench.missing_targets"]["value"] == 1
    assert record["spans_summary"]["missing"] == [
        "repro.fluid.controllers.ControllerBank"]


def test_vanished_method_is_skipped_and_uninstall_restores(monkeypatch):
    from repro.sim.engine import Simulator
    from repro.tcp.receiver import TcpReceiver

    monkeypatch.delattr(Simulator, "step")
    before = TcpReceiver.receive
    rec = spans.Recorder()
    rec.install()
    try:
        assert "repro.sim.engine.Simulator.step" in rec.missing
        assert TcpReceiver.receive is not before
    finally:
        rec.uninstall()
    assert TcpReceiver.receive is before


def test_raising_op_is_counted_not_fatal(monkeypatch, tmp_path):
    import repro.experiments.runner as runner

    real = runner.run_single_flow

    def flaky(factory, *args, **kwargs):
        if kwargs.get("name") == "CUBIC":
            raise RuntimeError("injected failure")
        return real(factory, *args, **kwargs)

    monkeypatch.setattr(runner, "run_single_flow", flaky)
    record = measure("bulk_cellular", tmp_path, traced=False)
    passes = 1 + record["passes"]  # the warm-up pass is checked too
    assert record["attempted"] == 3 * passes
    assert record["failed"] == passes and not record["correct"]
    assert record["end_to_end"]["failed_share"]["median"] == pytest.approx(1 / 3)
    assert "injected failure" in record["failures"][0]
    assert record["end_to_end"]["flow_s_per_wall_s"]["median"] > 0
