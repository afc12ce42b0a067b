"""Tests for the live-run observatory: sampling budgets, profiling
hooks, the trace follower, and the ``repro watch`` dashboard.

The contracts under test:

* sampling only *thins the event trace* — results stay bit-identical,
  the sampled trace is a strict subset of the full one, and every
  rejected record is accounted for in ``run.telemetry.dropped.*``;
* profiling requires a tracer, attributes time to subsystem phases,
  and leaves the canonical summary untouched;
* the follower sees every record exactly once across incremental polls
  and worker part files, so a dashboard on an in-progress run is exact.
"""

import io
import json
import os
import re

import pytest

import repro.obs as obs
from repro.experiments.options import RunOptions
from repro.experiments.parallel import RunSpec, proprate_spec, run_batch
from repro.experiments.runner import run_single_flow
from repro.core.proprate import PropRate
from repro.traces.cache import as_ref
from repro.traces.presets import isp_trace
from tests.helpers import SAMPLED_SPEC, isp_traces


def _down(duration=30.0):
    return isp_trace("A", "stationary", duration=duration)


def _read_jsonl(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        records.extend(json.loads(line) for line in fh if line.strip())
    return records


# ----------------------------------------------------------------------
# Sampling policy
# ----------------------------------------------------------------------
class TestSamplingPolicy:
    def test_every_nth(self):
        budget = obs.KindBudget(every=3)
        admitted = [budget.admit(float(i)) for i in range(9)]
        assert admitted == [True, False, False] * 3
        assert (budget.kept, budget.dropped) == (3, 6)

    def test_interval_keeps_first_of_burst(self):
        budget = obs.KindBudget(interval=1.0)
        assert budget.admit(0.0)
        assert not budget.admit(0.5)
        assert not budget.admit(0.99)
        assert budget.admit(1.0)

    def test_hard_cap(self):
        budget = obs.KindBudget(max_events=2)
        assert [budget.admit(float(i)) for i in range(4)] == \
            [True, True, False, False]
        # A periodic source's written ticks share the same cap.
        capped = obs.KindBudget(max_events=1)
        assert [capped.keep() for _ in range(3)] == [True, False, False]
        assert capped.dropped == 2

    def test_stride_is_the_smallest_every_multiple_spanning_interval(self):
        tick = 0.010
        assert obs.KindBudget().stride(tick) == 1
        assert obs.KindBudget(every=64).stride(tick) == 64
        # 0.05 / 0.01 rounds to 5.000000000000001: still 5 ticks.
        assert obs.KindBudget(interval=0.05).stride(tick) == 5
        assert obs.KindBudget(every=4, interval=0.05).stride(tick) == 8
        assert obs.KindBudget(every=8, interval=0.05).stride(tick) == 8

    def test_parse_grammar(self):
        policy = obs.SamplingPolicy.parse(
            "queue.sample:every=10,max=100;cc.nfl:interval=0.5;*:every=2"
        )
        queue = policy["queue.sample"]
        assert (queue.every, queue.interval, queue.max_events) == \
            (10, 0.0, 100)
        assert queue.admit(0.0)
        assert not queue.admit(0.1)
        nfl = policy["cc.nfl"]
        assert (nfl.every, nfl.interval, nfl.max_events) == (1, 0.5, None)
        # Explicit rules are the live budgets; ``*`` spawns one per kind.
        assert policy["queue.sample"] is queue
        other = policy["cc.state"]
        assert other is not policy["cc.rto"] and other.every == 2
        assert policy["cc.state"] is other
        # bare-int shorthand == every=N
        short = obs.SamplingPolicy.parse("queue.sample:4")["queue.sample"]
        assert [short.admit(float(i)) for i in range(4)] == \
            [True, False, False, False]
        with pytest.raises(ValueError):
            obs.SamplingPolicy.parse("queue.sample:bogus=1")

    @pytest.mark.parametrize("spec, item", [
        ("queue.sample:interval=nan", "queue.sample:interval=nan"),
        ("queue.sample:every=2;queue.sample:max=5", "queue.sample:max=5"),
        ("queue.sample:every=1.5", "queue.sample:every=1.5"),
    ], ids=["nan-interval", "kind-twice", "fractional-every"])
    def test_parse_rejects_naming_the_item(self, spec, item):
        with pytest.raises(ValueError, match=re.escape(repr(item))):
            obs.SamplingPolicy.parse(spec)

    def test_protected_kinds_always_pass(self):
        policy = obs.SamplingPolicy.parse("*:every=1000")
        for kind in obs.PROTECTED_KINDS:
            assert policy[kind] is None
        assert policy.drain_dropped() == {}

    def test_drain_dropped_resets(self):
        policy = obs.SamplingPolicy.parse("x:every=2")
        for i in range(4):
            policy["x"].admit(float(i))
        assert policy.drain_dropped() == {"x": 2}
        assert policy.drain_dropped() == {}

    def test_sampled_trace_strict_subset_with_exact_accounting(
            self, tmp_path):
        # The observatory's core honesty contract: the sampled run's
        # event stream is a strict subset of the full run's, and the
        # dropped counters account exactly for the difference.
        full_path = str(tmp_path / "full.jsonl")
        thin_path = str(tmp_path / "thin.jsonl")
        full_res = run_single_flow(
            PropRate, _down(), duration=4.0, measure_start=1.0,
            telemetry=full_path,
        )
        thin_res = run_single_flow(
            PropRate, _down(), duration=4.0, measure_start=1.0,
            telemetry=thin_path, sampling="queue.sample:every=7;*:every=3",
        )
        # Results are untouched by sampling.
        assert thin_res.summary()[:-1] == full_res.summary()[:-1]

        def keyed(path):
            # metrics/meta records legitimately differ (dropped
            # counters, wall-clock timings, pids) — exclude them.
            return [json.dumps(r, sort_keys=True)
                    for r in _read_jsonl(path)
                    if r["kind"] not in ("meta", "metrics")]

        full, thin = keyed(full_path), keyed(thin_path)
        assert set(thin) < set(full)
        (metrics_rec,) = [r for r in _read_jsonl(thin_path)
                          if r["kind"] == "metrics"]
        dropped_total = metrics_rec["metrics"]["run.telemetry.dropped_events"]
        assert dropped_total == len(full) - len(thin)
        by_kind = {k[len("run.telemetry.dropped."):]: v
                   for k, v in metrics_rec["metrics"].items()
                   if k.startswith("run.telemetry.dropped.")
                   and k != "run.telemetry.dropped_events"}
        assert sum(by_kind.values()) == dropped_total
        assert by_kind["queue.sample"] > 0

    @staticmethod
    def _queue_samples(tmp_path, sampling):
        path = str(tmp_path / "t.jsonl")
        run_single_flow(PropRate, *isp_traces("A", "stationary", 4.0),
                        duration=4.0, measure_start=1.0, telemetry=path,
                        sampling=sampling)
        records = _read_jsonl(path)
        (metrics_rec,) = [r for r in records if r["kind"] == "metrics"]
        by_link = {}
        for r in records:
            if r["kind"] == "queue.sample":
                by_link.setdefault(r["link"], []).append(r["t"])
        return by_link, metrics_rec["metrics"]

    @pytest.mark.parametrize("sampling, stride", [
        (SAMPLED_SPEC, 64), ("queue.sample:interval=0.05", 5),
    ], ids=["bench-spec", "interval"])
    def test_periodic_sources_keep_their_own_cadence(self, tmp_path,
                                                     sampling, stride):
        # Each link's sampler is its own source: it keeps every
        # stride-th tick of its own 10 ms clock, whatever the other
        # link wrote, and the drops are exactly the ticks it skipped.
        full, _ = self._queue_samples(tmp_path, None)
        thin, metrics = self._queue_samples(tmp_path, sampling)
        assert set(full) == set(thin) == {"downlink", "uplink"}
        for link, times in full.items():
            assert thin[link] == times[::stride], link
        kept = sum(map(len, thin.values()))
        ticks = sum(map(len, full.values()))
        assert metrics["run.telemetry.dropped.queue.sample"] == ticks - kept

    def test_sampling_without_telemetry_rejected_by_batch(self):
        with pytest.raises(ValueError):
            run_batch([RunSpec(cc=proprate_spec(0.040),
                               downlink=as_ref(_down()), duration=2.0)],
                      run_options=RunOptions(sampling="*:every=2"))

    def test_bad_spec_raises_before_the_trace_opens(self, tmp_path):
        bad = "queue.sample:bogus=1"
        with pytest.raises(ValueError, match="bogus"):
            run_single_flow(lambda: PropRate(0.040), _down(), duration=1.0,
                            telemetry=str(tmp_path / "leaf.jsonl"), sampling=bad)
        with pytest.raises(ValueError, match="bogus"):
            run_batch([RunSpec(cc=proprate_spec(0.040),
                               downlink=as_ref(_down()), duration=1.0)],
                      run_options=RunOptions(telemetry=str(tmp_path / "b.jsonl"),
                                             sampling=bad))
        assert list(tmp_path.iterdir()) == []

    def test_env_sampling_applies_to_env_tracer(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.SAMPLE_ENV, "queue.sample:every=5")
        monkeypatch.setenv(obs.TELEMETRY_ENV,
                           str(tmp_path / "env-trace"))
        monkeypatch.chdir(tmp_path)
        run_single_flow(PropRate, _down(), duration=3.0, measure_start=1.0)
        (path,) = [str(tmp_path / p) for p in os.listdir(tmp_path)
                   if p.startswith("env-trace")]
        (metrics_rec,) = [r for r in _read_jsonl(path)
                          if r["kind"] == "metrics"]
        assert metrics_rec["metrics"]["run.telemetry.dropped.queue.sample"] > 0


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------
class TestProfiling:
    def _run(self, **kwargs):
        return run_single_flow(
            PropRate, _down(), duration=4.0, measure_start=1.0, **kwargs
        )

    def test_wrap_and_span_accumulate(self):
        prof = obs.PhaseProfiler()
        fn = prof.wrap("p", lambda x: x + 1)
        assert fn(1) == 2 and fn(2) == 3
        with prof.span("q"):
            pass
        reg = obs.MetricsRegistry()
        prof.flush_into(reg)
        snap = reg.snapshot()
        assert snap["run.timing.prof.p.calls"] == 2
        assert snap["run.timing.prof.q.calls"] == 1
        assert snap["run.timing.prof.p.wall_s"] >= 0.0
        # Flush resets: a second flush adds nothing.
        reg2 = obs.MetricsRegistry()
        prof.flush_into(reg2)
        assert reg2.snapshot() == {}

    def test_profile_without_tracer_raises(self):
        with pytest.raises(ValueError):
            self._run(profile=True)

    def test_env_profile_without_tracer_silently_off(self, monkeypatch):
        monkeypatch.setenv(obs.PROFILE_ENV, "1")
        result = self._run()
        assert result.metrics is None

    def test_profile_phases_in_trace(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._run(telemetry=path, profile=True)
        (metrics_rec,) = [r for r in _read_jsonl(path)
                          if r["kind"] == "metrics"]
        snap = metrics_rec["metrics"]
        for phase in ("ack.scoreboard", "cc.control", "link.serve",
                      "delivery.pump"):
            assert snap[f"run.timing.prof.{phase}.calls"] > 0
            assert snap[f"run.timing.prof.{phase}.wall_s"] >= 0.0

    def test_profiled_summary_bit_identical(self, tmp_path):
        baseline = self._run()
        profiled = self._run(telemetry=str(tmp_path / "t.jsonl"),
                             profile=True)
        # prof keys carry "timing" and stay out of the canonical view.
        assert profiled.summary()[:-1] == baseline.summary()

    def test_profile_table_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "t.jsonl")
        self._run(telemetry=path, profile=True)
        main(["trace", path, "--profile"])
        out = capsys.readouterr().out
        assert "ack.scoreboard" in out and "wall s" in out

    def test_batch_profile_includes_dispatch(self, tmp_path):
        base = str(tmp_path / "batch.jsonl")
        specs = [RunSpec(cc=proprate_spec(0.040), downlink=as_ref(_down()),
                         duration=3.0, measure_start=1.0, name=f"r{i}")
                 for i in range(2)]
        run_batch(specs, n_jobs=2,
                  run_options=RunOptions(telemetry=base, profile=True))
        (batch,) = [r for r in _read_jsonl(base)
                    if r["kind"] == "metrics" and r.get("scope") == "batch"]
        snap = batch["metrics"]
        assert snap["batch.timing.prof.sched.dispatch.calls"] == 2
        assert snap["run.timing.prof.ack.scoreboard.calls"] > 0

    def test_env_profile_reaches_the_batch_coordinator(self, tmp_path,
                                                        monkeypatch):
        # profile=None resolves through REPRO_PROFILE for the coordinator
        # exactly as it does for every run.
        monkeypatch.setenv(obs.PROFILE_ENV, "1")
        base = str(tmp_path / "batch.jsonl")
        specs = [RunSpec(cc=proprate_spec(0.040), downlink=as_ref(_down()),
                         duration=2.0, measure_start=1.0, name=f"r{i}")
                 for i in range(2)]
        run_batch(specs, run_options=RunOptions(telemetry=base))
        (batch,) = [r for r in _read_jsonl(base)
                    if r["kind"] == "metrics" and r.get("scope") == "batch"]
        snap = batch["metrics"]
        assert snap["batch.timing.prof.sched.dispatch.calls"] == 2
        assert snap["run.timing.prof.cc.control.calls"] > 0


# ----------------------------------------------------------------------
# Trace follower
# ----------------------------------------------------------------------
class TestTraceFollower:
    def test_incremental_polls_across_rotation(self, tmp_path):
        from repro.obs.live import TraceFollower

        path = str(tmp_path / "t.jsonl")
        follower = TraceFollower(path)
        assert follower.poll() == []  # file may not exist yet
        sink = obs.JsonlSink(path)
        seen = []
        for i in range(30):
            sink.write({"t": float(i), "kind": "x", "i": i})
            sink.flush()
            if i % 7 == 0:
                seen.extend(follower.poll())
        sink.close()
        seen.extend(follower.poll())
        assert [r["i"] for r in seen if r["kind"] == "x"] == list(range(30))
        assert follower.poll() == []  # nothing seen twice

    def test_partial_line_held_until_complete(self, tmp_path):
        from repro.obs.live import TraceFollower

        path = str(tmp_path / "t.jsonl")
        follower = TraceFollower(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"t":0.0,"kind":"x","i":0}\n{"t":1.0,"ki')
            fh.flush()
            assert [r["i"] for r in follower.poll()] == [0]
            fh.write('nd":"x","i":1}\n')
            fh.flush()
            assert [r["i"] for r in follower.poll()] == [1]

    def test_part_files_deduped_after_merge(self, tmp_path):
        # Records read live from a worker part file must not be seen
        # again when the coordinator copies them into the base trace.
        from repro.experiments.parallel import _BatchTelemetry
        from repro.obs.live import TraceFollower

        base = str(tmp_path / "batch.jsonl")
        follower = TraceFollower(base)
        bt = _BatchTelemetry(base)
        part = obs.JsonlSink(bt.part(0))
        for i in range(5):
            part.write({"t": float(i), "kind": "x", "i": i})
        part.flush()
        live = [r for r in follower.poll() if r.get("kind") == "x"]
        assert [r["i"] for r in live] == list(range(5))
        part.close()
        bt.finalize()
        merged = [r for r in follower.poll() if r.get("kind") == "x"]
        assert merged == []  # already seen via the part file


# ----------------------------------------------------------------------
# Dashboard + watch CLI
# ----------------------------------------------------------------------
class TestDashboard:
    @pytest.fixture(scope="class")
    def batch_trace(self, tmp_path_factory):
        base = str(tmp_path_factory.mktemp("live") / "batch.jsonl")
        down = as_ref(_down())
        specs = [RunSpec(cc=proprate_spec(t), downlink=down, duration=5.0,
                         measure_start=1.0, name=f"PR{i}")
                 for i, t in enumerate((0.020, 0.060))]
        run_batch(specs, n_jobs=2, run_options=RunOptions(
            telemetry=base, sampling="queue.sample:every=2"))
        return base

    def test_dashboard_renders_batch_panels(self, batch_trace):
        from repro.obs.live import TraceFollower, TraceState

        state = TraceState()
        state.ingest_all(TraceFollower(batch_trace).poll())
        assert state.complete
        frame = state.render(width=70, height=4)
        assert "sched" in frame and "2/2 done" in frame
        assert "buffering delay" in frame
        assert "state  |" in frame
        assert "sampling:" in frame and "queue.sample" in frame

    def test_sampling_footer_matches_summary_total(self, batch_trace):
        # The batch metrics record already merges the run records, so
        # the dashboard must not add them up a second time.
        from repro.obs.analyze import read_trace, summarize_trace
        from repro.obs.live import watch

        frame = watch(batch_trace, once=True, out=io.StringIO())
        (footer,) = re.findall(r"^sampling: (\d+) dropped", frame, re.M)
        (total,) = re.findall(r"total dropped by sampling budgets: (\d+)",
                              summarize_trace(read_trace(batch_trace)))
        assert int(footer) == int(total) > 0

    def test_progress_total_is_the_batch_size(self, tmp_path):
        # A serial batch dispatches one spec at a time; the bar's total
        # must still be the whole batch after the first outcome.
        from repro.obs.analyze import read_trace
        from repro.obs.live import TraceState

        base = str(tmp_path / "serial.jsonl")
        specs = [RunSpec(cc=proprate_spec(0.040), downlink=as_ref(_down()),
                         duration=1.5, measure_start=0.5, name=f"r{i}")
                 for i in range(3)]
        run_batch(specs, n_jobs=1, run_options=RunOptions(telemetry=base))
        records = read_trace(base)
        first = next(i for i, r in enumerate(records)
                     if r["kind"] == obs.SCHED_OUTCOME)
        state = TraceState()
        state.ingest_all(records[:first + 1])
        assert "1/3 done" in state.render(width=60)

    def test_watch_once_cli(self, batch_trace, capsys):
        from repro.__main__ import main

        main(["watch", batch_trace, "--once", "--width", "60"])
        out = capsys.readouterr().out
        assert "[complete]" in out
        assert "sched" in out and "buffering delay" in out

    def test_watch_frames_limit_no_clear(self, batch_trace):
        from repro.obs.live import watch

        buf = io.StringIO()
        frame = watch(batch_trace, interval=0.0, frames=2, width=60,
                      out=buf, clear=False)
        assert "sched" in frame
        assert "\x1b[2J" not in buf.getvalue()

    def test_watch_fluid_trace(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.fluid import fan_in_scenario, run_fluid

        path = str(tmp_path / "fluid.jsonl")
        flows, towers, handovers = fan_in_scenario(40, 2, 4.0)
        run_fluid(flows, towers, 4.0, measure_start=1.0,
                  handovers=handovers, telemetry=path, profile=True)
        main(["watch", path, "--once", "--width", "60"])
        out = capsys.readouterr().out
        assert "fluid towers" in out and "tbuff" in out
        (metrics_rec,) = [r for r in _read_jsonl(path)
                          if r["kind"] == "metrics"]
        assert metrics_rec["metrics"][
            "run.timing.prof.fluid.integrate.calls"] >= 1
