"""Tests for the :mod:`repro.obs` telemetry spine.

Covers the three layers: the event sink (rotation, format), the metrics
registry (merge semantics, canonical views), and the run/batch plumbing
(observer-only invariant, worker-part merging, the ``repro trace``
CLI).
"""

import json
import os

import pytest

import repro.obs as obs
from repro.debug import audit_enabled
from repro.experiments.options import RunOptions
from repro.experiments.parallel import (
    RunSpec,
    collect,
    proprate_spec,
    run_batch,
)
from repro.experiments.runner import run_single_flow
from repro.core.proprate import PropRate
from repro.traces.cache import as_ref
from repro.traces.presets import isp_trace
from repro.util.env import env_flag


def _down(duration=30.0):
    return isp_trace("A", "stationary", duration=duration)


def _read_jsonl(path):
    records = []
    for fpath in obs.iter_trace_files(path):
        with open(fpath, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


# ----------------------------------------------------------------------
# Sink
# ----------------------------------------------------------------------
class TestJsonlSink:
    def test_meta_header_first(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = obs.JsonlSink(path)
        sink.close()
        records = _read_jsonl(str(path))
        assert records[0]["kind"] == "meta"
        assert records[0]["format"] == obs.FORMAT

    def test_rotation_keeps_chronology(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = obs.JsonlSink(path, rotate_bytes=200)
        for i in range(50):
            sink.write({"t": float(i), "kind": "x", "i": i})
        sink.close()
        assert sink.rotations >= 1
        records = [r for r in _read_jsonl(path) if r["kind"] == "x"]
        assert [r["i"] for r in records] == list(range(50))

    def test_unjsonable_values_degrade_to_repr(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = obs.JsonlSink(path, header=False)
        sink.write({"t": 0.0, "kind": "x", "cb": object()})
        sink.close()
        (record,) = _read_jsonl(path)
        assert "object" in record["cb"]

    def test_close_idempotent(self, tmp_path):
        sink = obs.JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()

    def test_part_files_not_rotations(self, tmp_path):
        base = str(tmp_path / "t.jsonl")
        obs.JsonlSink(base).close()
        obs.JsonlSink(f"{base}.part0001.jsonl").close()
        assert obs.iter_trace_files(base) == [base]

    def test_record_exactly_at_rotation_limit(self, tmp_path):
        # A write that lands exactly on rotate_bytes triggers rotation
        # *after* the record is safely in the old segment: nothing is
        # lost, split, or duplicated at the boundary.
        path = str(tmp_path / "t.jsonl")
        sink = obs.JsonlSink(path, rotate_bytes=100, header=False)
        record = '{"pad":"%s"}' % ("y" * 89)  # 99 chars; +newline == limit
        assert len(record) + 1 == 100
        sink.write_line(record)
        assert sink.rotations == 1
        sink.write_line('{"after":1}')
        sink.close()
        files = obs.iter_trace_files(path)
        assert files == [f"{path}.1", path]
        assert _read_jsonl(path) == [{"pad": "y" * 89}, {"after": 1}]

    def test_rotated_segments_carry_meta_headers(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = obs.JsonlSink(path, rotate_bytes=200)
        for i in range(50):
            sink.write({"t": float(i), "kind": "x", "i": i})
        sink.close()
        assert sink.rotations >= 1
        for fpath in obs.iter_trace_files(path):
            with open(fpath, encoding="utf-8") as fh:
                first = json.loads(fh.readline())
            assert first["kind"] == "meta"
        # Continuations are distinguishable from fresh traces.
        with open(f"{path}.1", encoding="utf-8") as fh:
            assert "rotation" not in json.loads(fh.readline())
        with open(path, encoding="utf-8") as fh:
            assert json.loads(fh.readline())["rotation"] == sink.rotations

    def test_reopening_removes_stale_rotation_segments(self, tmp_path):
        # A second run writing to the same path must not leave the
        # first run's rotated segments to pollute readers.
        path = str(tmp_path / "t.jsonl")
        sink = obs.JsonlSink(path, rotate_bytes=200)
        for i in range(50):
            sink.write({"t": float(i), "kind": "x", "i": i})
        sink.close()
        assert len(obs.iter_trace_files(path)) > 1
        fresh = obs.JsonlSink(path)
        fresh.write({"t": 0.0, "kind": "x", "i": 99})
        fresh.close()
        assert obs.iter_trace_files(path) == [path]
        assert [r["i"] for r in _read_jsonl(path) if r["kind"] == "x"] == [99]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_snapshot_shapes(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").add(3)
        reg.gauge("g").track_max(7)
        reg.gauge("g").track_max(5)  # below the peak: ignored
        h = reg.histogram("h")
        h.observe(1.0)
        h.observe(3.0)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == {"gauge": 7}
        assert snap["h"] == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}

    def test_empty_histogram_omitted(self):
        reg = obs.MetricsRegistry()
        reg.histogram("h")
        assert "h" not in reg.snapshot()

    def test_merge_value_semantics(self):
        assert obs.merge_value(2, 3) == 5  # counters: sum
        assert obs.merge_value({"gauge": 2}, {"gauge": 9}) == {"gauge": 9}
        merged = obs.merge_value(
            {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0},
            {"count": 2, "sum": 1.0, "min": 0.5, "max": 0.6},
        )
        assert merged == {"count": 3, "sum": 3.0, "min": 0.5, "max": 2.0}

    def test_merge_value_empty_histogram_is_identity(self):
        # An empty histogram's min/max sentinels (inf/-inf) must not
        # poison the merged cell — empty merges as identity, both ways.
        full = {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}
        empty = {"count": 0, "sum": 0.0,
                 "min": float("inf"), "max": float("-inf")}
        assert obs.merge_value(full, empty) == full
        assert obs.merge_value(empty, full) == full
        assert obs.merge_value(empty, dict(empty))["count"] == 0

    def test_merge_value_gauge_histogram_conflict_peak_wins(self):
        # A key recorded as a gauge on one side and a histogram on the
        # other (e.g. track_max vs observe across versions) merges to
        # the overall peak, as a gauge — the only order-independent
        # choice.  An empty histogram contributes no peak.
        hist = {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}
        assert obs.merge_value({"gauge": 2}, hist) == {"gauge": 3}
        assert obs.merge_value(hist, {"gauge": 2}) == {"gauge": 3}
        assert obs.merge_value({"gauge": 5}, hist) == {"gauge": 5}
        empty = {"count": 0, "sum": 0.0,
                 "min": float("inf"), "max": float("-inf")}
        assert obs.merge_value({"gauge": 2}, empty) == {"gauge": 2}

    def test_merge_snapshots_normalizes_flow_prefix(self):
        total = {}
        obs.merge_snapshots(total, {"flow0.acks": 10, "run.engine.events": 5})
        obs.merge_snapshots(total, {"flow1.acks": 7, "run.engine.events": 2})
        assert total == {"flows.acks": 17, "run.engine.events": 7}

    def test_flow_metrics_view(self):
        snap = {"flow0.acks": 4, "flow1.acks": 9, "run.engine.events": 2}
        view = obs.flow_metrics_view(snap, 1)
        assert view == {"acks": 9, "run.engine.events": 2}

    def test_canonical_metrics_excludes_timing(self):
        snap = {
            "acks": 1,
            "timing.ack_cost_us": {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0},
            "run.timing.wall_s": {"gauge": 0.5},
            "peak": {"gauge": 3},
        }
        canon = obs.canonical_metrics(snap)
        keys = [k for k, *_ in canon]
        assert "acks" in keys and "peak" in keys
        assert not any("timing" in k for k in keys)
        # Deterministic: a dict with reversed insertion order canonicalizes
        # identically.
        assert canon == obs.canonical_metrics(dict(reversed(list(snap.items()))))


# ----------------------------------------------------------------------
# Tracer lifecycle
# ----------------------------------------------------------------------
class TestTracerLifecycle:
    def test_off_by_default(self):
        assert obs.current_tracer() is None

    def test_double_activation_rejected(self, tmp_path):
        with obs.tracing(tmp_path / "a.jsonl") as tracer:
            assert obs.current_tracer() is tracer
            with pytest.raises(RuntimeError):
                obs.activate(tracer)
        assert obs.current_tracer() is None

    def test_resolve_prefers_explicit_then_ambient(self, tmp_path):
        explicit = obs.Tracer(obs.JsonlSink(tmp_path / "x.jsonl"))
        tracer, owned = obs.resolve_tracer(explicit)
        assert tracer is explicit and not owned
        explicit.close()
        with obs.tracing(tmp_path / "a.jsonl") as ambient:
            tracer, owned = obs.resolve_tracer(None)
            assert tracer is ambient and not owned
        tracer, owned = obs.resolve_tracer(None)
        assert tracer is None and not owned

    def test_env_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.TELEMETRY_ENV, "0")
        assert obs.env_trace_path() is None
        monkeypatch.setenv(obs.TELEMETRY_ENV, str(tmp_path / "pfx"))
        path = obs.env_trace_path()
        assert path is not None and path.startswith(str(tmp_path / "pfx"))
        monkeypatch.setenv(obs.TELEMETRY_ENV, "1")
        assert obs.env_trace_path().startswith("telemetry" + os.sep)


class TestEnvFlags:
    """One parser, one off-vocabulary, for every ``REPRO_*`` switch."""

    BOOLEAN = {
        "REPRO_AUDIT": lambda: audit_enabled(),
        "REPRO_TELEMETRY": lambda: obs.env_trace_path() is not None,
        "REPRO_PROFILE": obs.env_profile,
    }

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off",
                                       " Off ", "NO"])
    @pytest.mark.parametrize("name", sorted(BOOLEAN))
    def test_off_spellings(self, name, value, monkeypatch):
        monkeypatch.setenv(name, value)
        assert env_flag(name) is None
        assert self.BOOLEAN[name]() is False

    @pytest.mark.parametrize("value", ["1", "true", "some/prefix"])
    @pytest.mark.parametrize("name", sorted(BOOLEAN))
    def test_on_spellings(self, name, value, monkeypatch):
        monkeypatch.setenv(name, value)
        assert env_flag(name) == value
        assert self.BOOLEAN[name]() is True

    def test_telemetry_no_writes_no_file(self, tmp_path, monkeypatch):
        # Regression: "no"/"off" used to be taken for a path prefix and
        # wrote ``no.<pid>-0.jsonl`` into the working directory.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(obs.TELEMETRY_ENV, "no")
        result = run_single_flow(PropRate, _down(), duration=2.0,
                                 measure_start=0.5)
        assert result.metrics is None
        assert os.listdir(tmp_path) == []

    def test_telemetry_on_and_prefix_as_before(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(obs.TELEMETRY_ENV, "1")
        run_single_flow(PropRate, _down(), duration=2.0, measure_start=0.5)
        (trace,) = os.listdir(tmp_path / "telemetry")
        assert trace.startswith("trace-") and trace.endswith(".jsonl")
        monkeypatch.setenv(obs.TELEMETRY_ENV, os.path.join("some", "prefix"))
        run_single_flow(PropRate, _down(), duration=2.0, measure_start=0.5)
        (trace,) = os.listdir(tmp_path / "some")
        assert trace.startswith("prefix.") and trace.endswith(".jsonl")

    def test_audit_dir_off_spelling_falls_back_to_default(
            self, tmp_path, monkeypatch):
        from repro.debug import FlightRecorder

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_AUDIT_DIR", "off")
        path = FlightRecorder().dump()
        assert os.path.dirname(path) == "audit-traces"


class TestObserverValidation:
    """Explicit sampling/profile with no tracer: one ValueError, whichever
    door it came through; the environment forms degrade silently."""

    DOORS = {
        "run_single_flow": lambda **kw: run_single_flow(
            PropRate, _down(), duration=2.0, measure_start=0.5, **kw),
        "run_fluid": lambda **kw: _run_fluid(**kw),
        "CcEnv": lambda **kw: _make_env(**kw),
        "run_batch": lambda **kw: run_batch(
            [RunSpec(cc=proprate_spec(0.040), downlink=as_ref(_down()),
                     duration=2.0)], run_options=RunOptions(**kw)),
    }

    @pytest.mark.parametrize("setting", [{"sampling": "*:every=2"},
                                         {"profile": True}],
                             ids=["sampling", "profile"])
    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_same_error_every_door(self, door, setting, monkeypatch):
        monkeypatch.delenv(obs.TELEMETRY_ENV, raising=False)
        with pytest.raises(ValueError) as exc_info:
            self.DOORS[door](**setting)
        with pytest.raises(ValueError) as shared:
            obs.require_tracer(None, "*:every=2", None)
        assert str(exc_info.value) == str(shared.value)
        assert obs.current_tracer() is None

    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_environment_defaults_degrade_silently(self, door, monkeypatch):
        monkeypatch.delenv(obs.TELEMETRY_ENV, raising=False)
        monkeypatch.setenv(obs.SAMPLE_ENV, "*:every=2")
        monkeypatch.setenv(obs.PROFILE_ENV, "1")
        self.DOORS[door]()

    def test_ambient_or_env_tracer_satisfies_it(self, tmp_path, monkeypatch):
        with obs.tracing(tmp_path / "ambient.jsonl"):
            obs.require_tracer(None, "*:every=2", True)
        monkeypatch.setenv(obs.TELEMETRY_ENV, str(tmp_path / "env"))
        obs.require_tracer(None, None, True)


def _run_fluid(**kwargs):
    from repro.fluid import fan_in_scenario, run_fluid

    flows, towers, handovers = fan_in_scenario(4, 1, 2.0)
    return run_fluid(flows, towers, 2.0, measure_start=0.5,
                     handovers=handovers, **kwargs)


def _make_env(**kwargs):
    from repro.env import CcEnv

    CcEnv(_down(), inner_cc=PropRate, duration=2.0, measure_start=0.5,
          **kwargs).close()


# ----------------------------------------------------------------------
# Run-level plumbing
# ----------------------------------------------------------------------
class TestRunnerTelemetry:
    def _run(self, **kwargs):
        return run_single_flow(
            PropRate, _down(), duration=4.0, measure_start=1.0, **kwargs
        )

    def test_disabled_is_observer_free(self):
        result = self._run()
        assert result.metrics is None
        assert len(result.summary()) == 11

    def test_enabled_base_summary_bit_identical(self, tmp_path):
        baseline = self._run()
        traced = self._run(telemetry=str(tmp_path / "t.jsonl"))
        assert traced.summary()[:-1] == baseline.summary()
        assert obs.current_tracer() is None  # deactivated after the run

    def test_trace_contents(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._run(telemetry=path)
        kinds = {r["kind"] for r in _read_jsonl(path)}
        assert {
            "meta", "run.start", "run.end", "metrics",
            obs.CC_STATE, obs.CC_ESTIMATOR, obs.QUEUE_SAMPLE,
        } <= kinds

    def test_flow_metrics_populated(self, tmp_path):
        result = self._run(telemetry=str(tmp_path / "t.jsonl"))
        assert result.metrics["acks"] > 0
        assert result.metrics["segments_sent"] > 0
        assert "run.engine.events" in result.metrics
        assert "cc.dwell.fill" in result.metrics

    def test_run_twice_with_same_ambient_tracer(self, tmp_path):
        # Nested runs share an ambient tracer without double-activation.
        with obs.tracing(tmp_path / "t.jsonl"):
            self._run()
            self._run()
        records = _read_jsonl(str(tmp_path / "t.jsonl"))
        assert sum(r["kind"] == "run.end" for r in records) == 2


# ----------------------------------------------------------------------
# Batch merge
# ----------------------------------------------------------------------
class TestBatchTelemetry:
    def _specs(self, n=2):
        down = as_ref(_down())
        return [
            RunSpec(
                cc=proprate_spec(0.040),
                downlink=down,
                duration=4.0,
                measure_start=1.0,
                name=f"run{i}",
            )
            for i in range(n)
        ]

    def test_parallel_merge_tags_runs(self, tmp_path):
        base = str(tmp_path / "batch.jsonl")
        outcomes = run_batch(
            self._specs(3), n_jobs=2, run_options=RunOptions(telemetry=base))
        assert all(o.ok for o in outcomes)
        records = _read_jsonl(base)
        assert {r.get("run") for r in records if "run" in r} == {0, 1, 2}
        assert sum(r["kind"] == obs.SCHED_DISPATCH for r in records) == 3
        assert not [p for p in os.listdir(tmp_path) if ".part" in p]

    def test_batch_metrics_record(self, tmp_path):
        base = str(tmp_path / "batch.jsonl")
        run_batch(
            self._specs(2), n_jobs=2, run_options=RunOptions(telemetry=base))
        (batch,) = [
            r for r in _read_jsonl(base)
            if r["kind"] == "metrics" and r.get("scope") == "batch"
        ]
        metrics = batch["metrics"]
        assert metrics["batch.sched.dispatched"] == 2
        assert metrics["batch.sched.outcomes"] == 2
        assert metrics["flows.acks"] > 0  # per-run snapshots folded in

    def test_serial_and_parallel_summaries_match(self, tmp_path):
        specs = self._specs(2)
        serial = collect(
            run_batch(specs, n_jobs=1, run_options=RunOptions(
                telemetry=str(tmp_path / "s.jsonl")))
        )
        parallel = collect(
            run_batch(specs, n_jobs=2, run_options=RunOptions(
                telemetry=str(tmp_path / "p.jsonl")))
        )
        assert [r.summary() for r in serial] == [r.summary() for r in parallel]

    def test_rotated_part_files_merge_in_order(self, tmp_path):
        # A worker whose part trace rotated still merges completely and
        # chronologically into the batch trace, tagged with its run.
        from repro.experiments.parallel import _BatchTelemetry

        base = str(tmp_path / "batch.jsonl")
        bt = _BatchTelemetry(base)
        part = obs.JsonlSink(bt.part(0), rotate_bytes=120)
        for i in range(40):
            part.write({"t": float(i), "kind": "x", "i": i})
        part.close()
        assert part.rotations >= 1
        bt.finalize()
        records = [r for r in _read_jsonl(base) if r.get("kind") == "x"]
        assert [r["i"] for r in records] == list(range(40))
        assert all(r["run"] == 0 for r in records)
        assert not [p for p in os.listdir(tmp_path) if ".part" in p]

    def test_spec_with_own_path_untouched(self, tmp_path):
        own = str(tmp_path / "own.jsonl")
        spec = self._specs(1)[0]
        spec = RunSpec(
            cc=spec.cc, downlink=spec.downlink, duration=spec.duration,
            measure_start=spec.measure_start, name=spec.name,
            run_options=RunOptions(telemetry=own),
        )
        run_batch([spec], n_jobs=1, run_options=RunOptions(
            telemetry=str(tmp_path / "batch.jsonl")))
        assert os.path.exists(own)  # kept, not merged or deleted


# ----------------------------------------------------------------------
# Analyzer + CLI
# ----------------------------------------------------------------------
class TestTraceAnalysis:
    @pytest.fixture(scope="class")
    def batch_trace(self, tmp_path_factory):
        base = str(tmp_path_factory.mktemp("obs") / "batch.jsonl")
        down = as_ref(_down())
        specs = [
            RunSpec(cc=proprate_spec(t), downlink=down, duration=6.0,
                    measure_start=1.0, name=f"PR{i}")
            for i, t in enumerate((0.020, 0.060))
        ]
        run_batch(specs, n_jobs=2, run_options=RunOptions(telemetry=base))
        return base

    def test_read_trace_missing_raises(self, tmp_path):
        from repro.obs import analyze

        with pytest.raises(FileNotFoundError):
            analyze.read_trace(str(tmp_path / "nope.jsonl"))

    def test_summary_reconstructs_sawtooth_and_nfl(self, batch_trace):
        from repro.obs import analyze

        report = analyze.summarize_trace(analyze.read_trace(batch_trace))
        assert "State dwell" in report
        assert "fill" in report and "drain" in report
        assert "NFL threshold convergence" in report
        assert "Queue sawtooth" in report
        assert "downlink" in report

    def test_state_dwell_closes_open_state(self, batch_trace):
        from repro.obs import analyze
        from repro.obs.live import TraceState

        events = analyze.read_trace(batch_trace)
        for states in TraceState.of(events).state_dwell().values():
            total = sum(secs for _, secs in states.values())
            assert total == pytest.approx(6.0, abs=0.5)

    def test_diff_traces(self, batch_trace):
        from repro.obs import analyze

        events = analyze.read_trace(batch_trace)
        report = analyze.diff_traces(events, events)
        assert report.startswith("Diff:")

    def test_trace_cli_summary(self, batch_trace, capsys):
        from repro.__main__ import main

        main(["trace", batch_trace])
        out = capsys.readouterr().out
        assert "Event counts" in out
        assert "cc.state" in out

    def test_trace_cli_diff(self, batch_trace, capsys):
        from repro.__main__ import main

        main(["trace", batch_trace, "--diff", batch_trace])
        assert "Diff:" in capsys.readouterr().out

    def test_render_plot_waveform(self, batch_trace):
        from repro.obs import analyze

        events = analyze.read_trace(batch_trace)
        plot = analyze.render_plot(events, width=60, height=6)
        # Both runs of the batch get their own time axis and lanes.
        assert "run 0" in plot and "run 1" in plot
        assert "buffering delay" in plot and "downlink" in plot
        assert "state  |" in plot
        assert "legend:" in plot and "F=fill" in plot
        # Lanes are aligned: every lane row is exactly `width` wide.
        for line in plot.splitlines():
            if "|" in line and "flow" not in line and "cc.loss" not in line:
                assert len(line.split("|", 1)[1]) == 60

    def test_render_plot_empty_trace(self):
        from repro.obs import analyze

        assert "nothing" in analyze.render_plot([]) or \
            "no queue samples" in analyze.render_plot([])

    def test_trace_cli_plot(self, batch_trace, capsys):
        from repro.__main__ import main

        main(["trace", batch_trace, "--plot", "--plot-width", "50"])
        out = capsys.readouterr().out
        assert "buffering delay" in out
        assert "legend:" in out

    @pytest.mark.parametrize("text, line", [
        ('{"t":0.0,"kind":"meta"}\n{"t":0.1,"kind"\n'
         '{"t":0.2,"kind":"run.end"}\n', 2),
        ('{"t":0.0,"kind":"meta"}\n{"t":0.1,"kind":"run.end"}\n{"t":0.2,"ki',
         3),
    ], ids=["interior", "unterminated-final"])
    def test_malformed_line_names_file_and_line(self, tmp_path, capsys,
                                                text, line):
        from repro.__main__ import main
        from repro.obs import analyze

        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=f"bad.jsonl:{line}: "):
            analyze.read_trace(path)
        with pytest.raises(SystemExit) as exc_info:
            main(["trace", path])
        assert str(exc_info.value.code).startswith(
            f"repro trace: {path}:{line}: malformed trace record")
        assert capsys.readouterr().out == ""

    def test_complete_final_line_without_newline_reads(self, tmp_path):
        from repro.obs import analyze

        path = str(tmp_path / "t.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"t":0.0,"kind":"meta"}\n{"t":0.1,"kind":"run.end"}')
        assert [r["kind"] for r in analyze.read_trace(path)] == \
            ["meta", "run.end"]

    def test_run_cli_telemetry_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "run.jsonl")
        main(["run", "PropRate", "--target", "40", "--duration", "3",
              "--warmup", "1", "--telemetry", path])
        assert "KB/s" in capsys.readouterr().out
        assert any(r["kind"] == "run.end" for r in _read_jsonl(path))


# ----------------------------------------------------------------------
# One reducer, two views: the plot pinned byte for byte
# ----------------------------------------------------------------------
def _plot_records():
    """Two runs, simulation-free: a rated and an unrated link, two CC
    states sharing an initial, and a window-based flow with
    cc.loss-runs but no state curve."""
    recs = [{"t": 0.0, "kind": "meta", "format": "repro.obs/1"}]
    # run 0: a rated downlink (ms) and an unrated uplink (pkts); one
    # rate-based flow walking four states, two of which share "F".
    recs.append({"t": 0.0, "kind": "run.start", "run": 0,
                 "links": {"downlink": {"rate": 1250000.0, "kind": "cellular"},
                           "uplink": {"kind": "wired"}}})
    states = ["slow_start", "fill", "drain", "fill", "fast_probe", "drain",
              "fill"]
    for i, state in enumerate(states):
        recs.append({"t": 0.3 * i, "kind": "cc.state", "run": 0, "flow": 0,
                     "state": state})
    for i in range(40):
        t = 0.05 * i
        recs.append({"t": t, "kind": "queue.sample", "run": 0,
                     "link": "downlink", "len": (i * 7) % 23})
        recs.append({"t": t, "kind": "queue.sample", "run": 0,
                     "link": "uplink", "len": i % 3})
    for t in (0.42, 0.44, 1.37):
        recs.append({"t": t, "kind": "cc.loss", "run": 0, "flow": 0,
                     "lost": 1})
    recs.append({"t": 2.0, "kind": "run.end", "run": 0})
    # run 1: no run.start rate (pkts); a window-based flow with
    # cc.loss-runs but no state curve, next to a rate-based one.
    for i in range(30):
        recs.append({"t": 0.1 * i, "kind": "queue.sample", "run": 1,
                     "link": "downlink", "len": (i * i) % 17})
    for i, state in enumerate(["slow_start", "fill", "drain"]):
        recs.append({"t": 0.9 * i, "kind": "cc.state", "run": 1, "flow": 0,
                     "state": state})
    for t in (0.5, 1.05, 2.9):
        recs.append({"t": t, "kind": "cc.loss-runs", "run": 1, "flow": 1,
                     "runs": [[10, 12]]})
    return recs


#: ``render_plot(_plot_records(), width=60, height=6)``, captured before
#: the plot and the dashboard shared one panel renderer.
GOLDEN_PLOT = "\n".join([
    'run 0  [0.00s .. 1.95s]',
    '  downlink: buffering delay, peak 26.4 ms',
    '   26.4 |    ▅▅   ▁         ██   ▃▃             ▅▅   ▁▁         █   ▃',
    '   22.0 |    ██   █   ▅▅   ▁██   ██   ▇   ▂▂    ██   ██   ▅   ▁▁█   █',
    '   17.6 |   ▆██ ▂▂█   ██   ███  ▄██   █   ██   ▆██  ▂██   █   ███  ▄█',
    '   13.2 |   ███ ███  ▅██ ▁▁███  ███ ███  ▃██   ███  ███ ▅▅█  ▁███  ██',
    '    8.8 | ▇▇███▂███  ███ █████▅▅███▁███  ███ ▇▇███▂▂███ ███  ████▅▅██',
    '    4.4 | █████████▆▆███▂██████████████▄▄███ ██████████▆███▂▂████████',
    '        +------------------------------------------------------------',
    '  uplink: buffering delay, peak 2.0 pkts',
    '    2.0 |   █   ██   █   ██   ██   █   ██   █   ██   ██   █   ██   █ ',
    '    1.7 |   █   ██   █   ██   ██   █   ██   █   ██   ██   █   ██   █ ',
    '    1.3 |   █   ██   █   ██   ██   █   ██   █   ██   ██   █   ██   █ ',
    '    1.0 | ███  ███ ███  ███ ████ ███  ███ ███  ███  ███ ███  ███ ███ ',
    '    0.7 | ███  ███ ███  ███ ████ ███  ███ ███  ███  ███ ███  ███ ███ ',
    '    0.3 | ███  ███ ███  ███ ████ ███  ███ ███  ███  ███ ███  ███ ███ ',
    '        +------------------------------------------------------------',
    '  state  |SSSSSSSSSSGGGGGGGGGDDDDDDDDDGGGGGGGGGFFFFFFFFFFDDDDDDDDDGGGG  flow 0',
    '  loss   |            xx                            x                 '
    '  flow 0 (3 cc.loss events)',
    'run 1  [0.00s .. 2.90s]',
    '  downlink: buffering delay, peak 16.0 pkts',
    '   16.0 |        ██    ▅▅    ▅▅    ██               ██    ▅▅    ▅▅   ',
    '   13.3 |        ██    ██▇▇▇▇██    ██               ██    ██▇▇▇▇██   ',
    '   10.7 |      ▃▃██    ████████    ██▃▃▃          ▃▃██    ████████   ',
    '    8.0 |      ██████  ████████  ███████          ██████  ████████  █',
    '    5.3 |    ▄▄██████  ████████  ███████▄▄      ▄▄██████  ████████  █',
    '    2.7 |  ▃▃████████▆▆████████▆▆█████████▃▃  ▃▃████████▆▆████████▆▆█',
    '        +------------------------------------------------------------',
    '  state  |SSSSSSSSSSSSSSSSSSSGGGGGGGGGGGGGGGGGGGDDDDDDDDDDDDDDDDDDDDDD  flow 0',
    '  loss   |          x          x                                     x'
    '  flow 1 (3 cc.loss events)',
    'legend: D=drain  F=fast_probe  G=fill  S=slow_start',
])


class TestPlotGolden:
    def test_plot_is_byte_identical(self):
        from repro.obs import analyze

        assert analyze.render_plot(_plot_records(), width=60, height=6) == \
            GOLDEN_PLOT

    def test_watch_panel_lines_appear_verbatim_in_plot(self):
        from repro.obs.live import WAVE_SAMPLES, TraceState

        state = TraceState(WAVE_SAMPLES)
        state.ingest_all(_plot_records())
        frame = state.render(width=60, height=6).splitlines()
        assert frame[0].startswith("run 0")
        plot = set(GOLDEN_PLOT.splitlines())
        assert [ln for ln in frame if ln not in plot] == []
