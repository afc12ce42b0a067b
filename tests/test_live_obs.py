"""Tests for the live-run observatory: sampling budgets, pluggable
sinks, profiling hooks, the trace follower, and the ``repro watch``
dashboard.

The contracts under test:

* sampling only *thins the event trace* — results stay bit-identical,
  the sampled trace is a strict subset of the full one, and every
  rejected record is accounted for in ``run.telemetry.dropped.*``;
* profiling requires a tracer, attributes time to subsystem phases,
  and leaves the canonical summary untouched;
* the follower sees every record exactly once across file rotation and
  worker part files, so a dashboard on an in-progress run is exact.
"""

import io
import json
import os
import re
import time

import pytest

import repro.obs as obs
from repro.experiments.options import RunOptions
from repro.experiments.parallel import RunSpec, proprate_spec, run_batch
from repro.experiments.runner import run_single_flow
from repro.core.proprate import PropRate
from repro.traces.cache import as_ref
from repro.traces.presets import isp_trace


def _down(duration=30.0):
    return isp_trace("A", "stationary", duration=duration)


def _read_jsonl(path):
    records = []
    for fpath in obs.iter_trace_files(path):
        with open(fpath, encoding="utf-8") as fh:
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

    def test_parse_grammar(self):
        policy = obs.SamplingPolicy.parse(
            "queue.sample:every=10,max=100;cc.nfl:interval=0.5;*:every=2"
        )
        assert policy.admit("queue.sample", 0.0)
        assert not policy.admit("queue.sample", 0.1)
        # bare-int shorthand == every=N
        short = obs.SamplingPolicy.parse("queue.sample:4")
        assert [short.admit("queue.sample", float(i)) for i in range(4)] == \
            [True, False, False, False]
        with pytest.raises(ValueError):
            obs.SamplingPolicy.parse("queue.sample:bogus=1")

    def test_protected_kinds_always_pass(self):
        policy = obs.SamplingPolicy.parse("*:every=1000")
        for kind in obs.PROTECTED_KINDS:
            for i in range(5):
                assert policy.admit(kind, float(i))
        assert policy.drain_dropped() == {}

    def test_drain_dropped_resets(self):
        policy = obs.SamplingPolicy.parse("x:every=2")
        for i in range(4):
            policy.admit("x", float(i))
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

    def test_sampling_without_telemetry_rejected_by_batch(self):
        with pytest.raises(ValueError):
            run_batch([RunSpec(cc=proprate_spec(0.040),
                               downlink=as_ref(_down()), duration=2.0)],
                      run_options=RunOptions(sampling="*:every=2"))

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
# Pluggable sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_stream_sink_callable_and_filelike(self):
        got = []
        stream = obs.StreamSink(got.append, header=False)
        stream.write({"i": 1})
        assert json.loads(got[0]) == {"i": 1}
        buf = io.StringIO()
        obs.StreamSink(buf, header=False).write({"i": 2})
        assert json.loads(buf.getvalue()) == {"i": 2}
        assert stream.lines == 1


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
        sink = obs.JsonlSink(path, rotate_bytes=150, header=False)
        seen = []
        for i in range(30):
            sink.write({"t": float(i), "kind": "x", "i": i})
            sink.flush()
            if i % 7 == 0:
                seen.extend(follower.poll())
        sink.close()
        seen.extend(follower.poll())
        assert sink.rotations >= 1
        assert [r["i"] for r in seen] == list(range(30))
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
        part = obs.JsonlSink(bt.part(0), header=False)
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


# ----------------------------------------------------------------------
# Socket transport: tcp:// telemetry targets + watch --connect
# ----------------------------------------------------------------------
class TestSocketTransport:
    def _await_clients(self, server, n, deadline=5.0):
        import time as _time

        end = _time.monotonic() + deadline
        while server.client_count < n and _time.monotonic() < end:
            _time.sleep(0.005)
        assert server.client_count >= n

    def test_server_broadcasts_lines_and_drops_dead_clients(self):
        import socket as socketlib

        from repro.obs.net import TcpLineServer

        server = TcpLineServer()
        try:
            host, port = server.address
            a = socketlib.create_connection((host, port), timeout=5.0)
            b = socketlib.create_connection((host, port), timeout=5.0)
            self._await_clients(server, 2)
            server.broadcast('{"i":1}')
            for client in (a, b):
                assert client.makefile("rb").readline() == b'{"i":1}\n'
            b.close()
            # The dead client is discovered on a later broadcast and
            # silently dropped; the live one keeps receiving.
            for _ in range(20):
                server.broadcast('{"i":2}')
            assert a.makefile("rb").readline() == b'{"i":2}\n'
            a.close()
        finally:
            server.close()

    def test_stream_follower_round_trip_and_hangup(self):
        from repro.obs.live import StreamFollower
        from repro.obs.net import SocketStreamSink

        sink = SocketStreamSink()
        try:
            host, port = sink.address
            follower = StreamFollower(f"{host}:{port}")
            follower.poll()  # dials
            self._await_clients(sink.server, 1)
            for i in range(5):
                sink.write({"t": float(i), "kind": "x", "i": i})
            seen = []
            deadline = 50
            while len(seen) < 5 and deadline:
                seen.extend(r for r in follower.poll()
                            if r.get("kind") == "x")
                deadline -= 1
                time.sleep(0.01)
            assert [r["i"] for r in seen] == list(range(5))
        finally:
            sink.close()
        # Server gone: the follower notices and stops polling.
        deadline = 50
        while not follower.closed and deadline:
            follower.poll()
            deadline -= 1
            time.sleep(0.01)
        assert follower.closed
        assert follower.poll() == []

    def test_follower_rejects_bad_address(self):
        from repro.obs.live import StreamFollower

        with pytest.raises(ValueError, match="host:port"):
            StreamFollower("no-port-here")

    def test_parse_tcp_target(self):
        from repro.obs.net import parse_tcp_target

        assert parse_tcp_target("trace.jsonl") is None
        assert parse_tcp_target("tcp://0.0.0.0:9000") == ("0.0.0.0", 9000)
        assert parse_tcp_target("tcp://:9000") == ("127.0.0.1", 9000)
        with pytest.raises(ValueError, match="tcp://host:port"):
            parse_tcp_target("tcp://nope")

    def test_tcp_telemetry_target_streams_a_run(self):
        from repro.obs.live import StreamFollower
        from repro.obs.net import SocketStreamSink

        tracer, owned = obs.resolve_tracer("tcp://127.0.0.1:0")
        assert owned and isinstance(tracer.sink, SocketStreamSink)
        try:
            host, port = tracer.sink.address
            follower = StreamFollower(f"{host}:{port}")
            follower.poll()
            self._await_clients(tracer.sink.server, 1)
            run_single_flow(PropRate, _down(), duration=3.0,
                            measure_start=1.0, telemetry=tracer)
            records = []
            deadline = 100
            while deadline and not any(
                    r.get("kind") == "run.end" for r in records):
                records.extend(follower.poll())
                deadline -= 1
                time.sleep(0.01)
            kinds = {r.get("kind") for r in records}
            assert {"run.start", "queue.sample", "run.end"} <= kinds
        finally:
            tracer.close()

    def test_watch_connect_exits_on_completion(self):
        import threading

        from repro.obs.live import watch
        from repro.obs.net import TcpLineServer

        server = TcpLineServer()
        host, port = server.address

        def feed():
            self._await_clients(server, 1)
            for i in range(8):
                server.broadcast(obs.encode(
                    {"t": 0.1 * i, "kind": "queue.sample", "link": "down",
                     "len": i}))
            server.broadcast(obs.encode({"t": 1.0, "kind": "run.end"}))

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            buf = io.StringIO()
            frame = watch(connect=f"{host}:{port}", interval=0.01,
                          width=60, out=buf, clear=False)
            assert "[complete]" in frame
            assert "buffering delay" in frame
        finally:
            server.close()
        feeder.join(timeout=5.0)

    def test_watch_connect_exits_on_hangup(self):
        import threading

        from repro.obs.live import watch
        from repro.obs.net import TcpLineServer

        server = TcpLineServer()
        host, port = server.address

        def hang_up():
            # No completion record ever: the server just goes away once
            # the watcher has connected, and watch must still exit.
            self._await_clients(server, 1)
            server.close()

        closer = threading.Thread(target=hang_up, daemon=True)
        closer.start()
        buf = io.StringIO()
        frame = watch(connect=f"{host}:{port}", interval=0.01, width=60,
                      out=buf, clear=False)
        assert "[disconnected]" in frame
        closer.join(timeout=5.0)

    def test_watch_cli_requires_exactly_one_source(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="exactly one"):
            main(["watch"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["watch", str(tmp_path / "t.jsonl"),
                  "--connect", "127.0.0.1:1"])
