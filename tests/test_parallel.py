"""The work-stealing batch scheduler and the trace cache.

The layer's contract has four legs:

* determinism — a batch returns bit-identical ``FlowResult`` numbers at
  every job count, because workers run the same ``execute()`` code
  against traces materialized by the same content-keyed cache;
* ordering — ``iter_batch`` streams outcomes in completion order, and
  ``run_batch`` restores submission order on top of it;
* containment — one spec raising (or returning something unpicklable)
  fails that spec's outcome, not the batch;
* robustness — specs lost to a worker death or a wall-clock timeout are
  re-dispatched up to ``retries`` times on a respawned pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

import repro
from repro.experiments.algorithms import run_shootout
from repro.experiments.frontier import iter_frontier, sweep_frontier
from repro.experiments.options import RunOptions
from repro.experiments.parallel import (
    CcSpec,
    RunSpec,
    collect,
    detach_results,
    iter_batch,
    proprate_spec,
    resolve_n_jobs,
    run_batch,
)
from repro.experiments.runner import FlowResult, run_single_flow
from repro.obs.analyze import read_trace
from repro.traces import cache as trace_cache
from repro.traces.cache import DataTraceRef, SpecTraceRef, as_ref
from repro.traces.generator import TraceSpec, generate_cellular_trace
from repro.traces.presets import isp_trace
from repro.traces.trace import Trace

DURATION = 6.0
WARMUP = 1.0


@pytest.fixture(autouse=True)
def _fresh_cache():
    trace_cache.clear_cache()
    yield
    trace_cache.clear_cache()


def _down():
    return isp_trace("A", "stationary", duration=20.0)


def _up():
    return isp_trace("A", "stationary", duration=20.0, direction="uplink")


def _flow_key(result: FlowResult):
    return (
        result.throughput,
        result.delay.mean,
        result.delay.p95,
        result.delivered_bytes,
        result.bottleneck_drops,
        result.retransmissions,
        result.rto_count,
    )


# ----------------------------------------------------------------------
# Trace references and the per-process cache
# ----------------------------------------------------------------------
class TestTraceCache:
    def test_generated_trace_becomes_spec_ref(self):
        trace = _down()
        ref = as_ref(trace)
        assert isinstance(ref, SpecTraceRef)
        # The compact form ships the generator spec, not the samples.
        assert len(pickle.dumps(ref)) < 1000

    def test_spec_ref_regenerates_identical_trace(self):
        spec = TraceSpec(
            name="t", mean_throughput=800e3, std_throughput=300e3,
            duration=10.0, seed=7,
        )
        ref = as_ref(spec)
        original = generate_cellular_trace(spec)
        rebuilt = trace_cache.get(ref)
        np.testing.assert_array_equal(
            rebuilt.opportunity_times, original.opportunity_times
        )

    def test_raw_trace_becomes_data_ref(self):
        times = np.sort(np.random.default_rng(3).uniform(0.0, 5.0, 200))
        trace = Trace(times, duration=5.0, name="raw")
        ref = as_ref(trace)
        assert isinstance(ref, DataTraceRef)
        rebuilt = trace_cache.get(ref)
        np.testing.assert_array_equal(rebuilt.opportunity_times, times)

    def test_cache_materializes_each_key_once(self):
        ref = as_ref(_down())
        first = trace_cache.get(ref)
        second = trace_cache.get(ref)
        assert first is second
        assert trace_cache.cache_len() == 1

    def test_equal_content_same_key(self):
        assert as_ref(_down()).key == as_ref(_down()).key
        assert as_ref(_down()).key != as_ref(_up()).key


# ----------------------------------------------------------------------
# Serial/parallel equivalence
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_frontier_identical_across_job_counts(self):
        down, up = _down(), _up()
        kwargs = dict(
            targets=[0.020, 0.040, 0.080],
            duration=DURATION,
            measure_start=WARMUP,
        )
        serial = sweep_frontier(down, up, n_jobs=1, **kwargs)
        parallel = sweep_frontier(down, up, n_jobs=2, **kwargs)
        assert [
            (p.target_tbuff, p.throughput_kbps, p.mean_delay_ms, p.p95_delay_ms)
            for p in serial
        ] == [
            (p.target_tbuff, p.throughput_kbps, p.mean_delay_ms, p.p95_delay_ms)
            for p in parallel
        ]

    def test_shootout_identical_across_job_counts(self):
        down = _down()
        names = ["PR(M)", "CUBIC", "BBR"]
        kwargs = dict(names=names, duration=DURATION, measure_start=WARMUP)
        serial = run_shootout(down, n_jobs=1, **kwargs)
        parallel = run_shootout(down, n_jobs=2, **kwargs)
        assert list(serial) == names == list(parallel)
        for name in names:
            assert _flow_key(serial[name]) == _flow_key(parallel[name]), name

    def test_batch_matches_direct_run_single_flow(self):
        down = _down()
        spec = RunSpec(
            cc=proprate_spec(0.040),
            downlink=down,
            duration=DURATION,
            measure_start=WARMUP,
        )
        (batched,) = collect(run_batch([spec], n_jobs=1))
        direct = run_single_flow(
            spec.cc.build, down,
            duration=DURATION, measure_start=WARMUP, name="PropRate",
        )
        assert _flow_key(batched) == _flow_key(direct)


# ----------------------------------------------------------------------
# Ordering, failure containment, detachment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _BoomSpec:
    """A spec that always fails inside the worker."""

    message: str = "kaboom"

    def execute(self):
        raise ValueError(self.message)


class TestRunBatch:
    def _specs(self, n=5):
        down = _down()
        return [
            RunSpec(
                cc=proprate_spec(0.020 + 0.010 * i),
                downlink=down,
                duration=3.0,
                measure_start=1.0,
                name=f"run-{i}",
            )
            for i in range(n)
        ]

    def test_outcomes_in_submission_order(self):
        outcomes = run_batch(self._specs(), n_jobs=2)
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
        assert [o.result.name for o in outcomes] == [f"run-{i}" for i in range(5)]

    def test_spec_failure_does_not_lose_the_batch(self):
        specs = self._specs(3)
        specs.insert(1, _BoomSpec())
        outcomes = run_batch(specs, n_jobs=2)
        assert [o.ok for o in outcomes] == [True, False, True, True]
        assert "kaboom" in outcomes[1].error
        assert outcomes[1].result is None
        assert all(o.result is not None for o in outcomes if o.ok)

    def test_collect_raises_listing_failures(self):
        outcomes = run_batch([_BoomSpec(), _BoomSpec("pow")], n_jobs=1)
        with pytest.raises(RuntimeError, match=r"2/2 runs failed"):
            collect(outcomes)

    def test_results_cross_the_boundary_detached(self):
        outcomes = run_batch(self._specs(2), n_jobs=2)
        for outcome in outcomes:
            assert outcome.result.collector is None
            assert outcome.result.sender is None

    def test_serial_results_also_detached(self):
        (outcome,) = run_batch(self._specs(1), n_jobs=1)
        assert outcome.result.collector is None
        assert outcome.result.sender is None

    def test_empty_batch(self):
        assert run_batch([], n_jobs=4) == []

    def test_detach_results_recurses(self):
        down = _down()
        result = run_single_flow(
            proprate_spec(0.040).build, down, duration=3.0, measure_start=1.0
        )
        assert result.sender is not None
        nested = {"a": (result, [result]), "b": 3}
        detached = detach_results(nested)
        assert detached["a"][0].sender is None
        assert detached["a"][1][0].collector is None
        assert detached["b"] == 3
        # The original is untouched; detaching is copy-on-write.
        assert result.sender is not None

    def test_resolve_n_jobs(self, monkeypatch):
        monkeypatch.setattr("repro.experiments.parallel.os.cpu_count", lambda: 8)
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(None) == 8
        assert resolve_n_jobs(0) == 8
        assert resolve_n_jobs(-1) == 8
        assert resolve_n_jobs(-2) == 7

    def test_cc_spec_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown congestion control"):
            CcSpec("NotAnAlgorithm").build()

    def test_traces_deduplicated_into_table(self):
        # Five specs sharing one downlink trace must cache one entry.
        run_batch(self._specs(5), n_jobs=1)
        assert trace_cache.cache_len() == 1


# ----------------------------------------------------------------------
# Streaming collection and work-stealing dispatch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SleepSpec:
    """A spec whose duration is its payload — scheduling probes."""

    seconds: float
    tag: int = 0

    def execute(self):
        time.sleep(self.seconds)
        return self.tag


@dataclass(frozen=True)
class _KillOnceSpec:
    """SIGKILLs its worker on the first attempt, succeeds after."""

    flag: str
    tag: int = 0

    def execute(self):
        if not os.path.exists(self.flag):
            with open(self.flag, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return self.tag


@dataclass(frozen=True)
class _AlwaysKillSpec:
    """SIGKILLs its worker on every attempt — a poison spec."""

    tag: int = 0

    def execute(self):
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class _StallOnceSpec:
    """Hangs far past any timeout on the first attempt, then succeeds."""

    flag: str
    tag: int = 0

    def execute(self):
        if not os.path.exists(self.flag):
            with open(self.flag, "w"):
                pass
            time.sleep(300.0)
        return self.tag


@dataclass(frozen=True)
class _UnpicklableResultSpec:
    """Executes fine but returns something that cannot cross the pipe."""

    def execute(self):
        return lambda: None


@dataclass(frozen=True)
class _SlowSimSpec:
    """A genuine simulation whose wall-clock cost dwarfs any timeout.

    Each event burns real time, so the engine's ambient run deadline —
    checked between event batches — is what cuts it short.  The serial
    scheduler path can only enforce ``timeout=`` through that deadline
    (there is no worker process to kill).
    """

    tag: int = 0

    def execute(self):
        from repro.sim.engine import Simulator

        sim = Simulator()

        def tick():
            time.sleep(0.0005)
            sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run(until=3600.0)
        return self.tag  # pragma: no cover - deadline fires first


class TestStreaming:
    def test_iter_batch_yields_in_completion_order(self):
        specs = [_SleepSpec(1.2, 0), _SleepSpec(0.1, 1), _SleepSpec(0.1, 2)]
        outcomes = list(iter_batch(specs, n_jobs=2))
        # The long run was dispatched first but must arrive last.
        assert [o.index for o in outcomes] == [1, 2, 0]
        assert all(o.ok for o in outcomes)
        assert [o.result for o in outcomes] == [1, 2, 0]

    def test_run_batch_restores_submission_order(self):
        specs = [_SleepSpec(0.4 if i == 0 else 0.05, i) for i in range(5)]
        outcomes = run_batch(specs, n_jobs=2)
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
        assert [o.result for o in outcomes] == [0, 1, 2, 3, 4]

    def test_on_outcome_fires_once_per_spec(self):
        seen = []
        outcomes = run_batch(
            [_SleepSpec(0.05, i) for i in range(4)],
            n_jobs=2,
            run_options=RunOptions(on_outcome=lambda o: seen.append(o.index)),
        )
        assert sorted(seen) == [0, 1, 2, 3]
        assert all(o.ok for o in outcomes)

    def test_on_outcome_fires_on_serial_path(self):
        seen = []
        run_batch(
            [_SleepSpec(0.0, i) for i in range(3)],
            n_jobs=1,
            run_options=RunOptions(on_outcome=lambda o: seen.append(o.index)),
        )
        assert seen == [0, 1, 2]

    def test_iter_frontier_streams_identical_points(self):
        down = _down()
        kwargs = dict(
            targets=[0.020, 0.040, 0.080],
            duration=DURATION,
            measure_start=WARMUP,
        )
        swept = sweep_frontier(down, n_jobs=1, **kwargs)
        streamed = sorted(
            iter_frontier(down, n_jobs=2, **kwargs),
            key=lambda p: p.target_tbuff,
        )
        assert [
            (p.target_tbuff, p.result.summary()) for p in swept
        ] == [
            (p.target_tbuff, p.result.summary()) for p in streamed
        ]


class TestRobustness:
    def test_killed_worker_retried_to_success(self, tmp_path):
        flag = str(tmp_path / "killed")
        specs = [_KillOnceSpec(flag, 7), _SleepSpec(0.05, 1)]
        outcomes = run_batch(specs, n_jobs=2, run_options=RunOptions(retries=1))
        assert [o.ok for o in outcomes] == [True, True]
        assert outcomes[0].result == 7
        assert outcomes[0].attempts == 2  # dispatched, lost, re-dispatched

    def test_killed_worker_without_retries_reports_loss(self):
        outcomes = run_batch(
            [_AlwaysKillSpec(7), _AlwaysKillSpec(8)], n_jobs=2
        )
        assert [o.ok for o in outcomes] == [False, False]
        assert all("worker process died" in o.error for o in outcomes)

    def test_worker_death_not_charged_to_innocent_bystander(self):
        # Regression: one pool breakage used to charge every in-flight
        # spec, so with retries=0 a poison queue-mate failed this
        # sleeper too.  Only the culprit may absorb the loss.
        specs = [_AlwaysKillSpec(7), _SleepSpec(0.3, 1)]
        outcomes = run_batch(specs, n_jobs=2)
        assert not outcomes[0].ok
        assert "worker process died" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].result == 1

    def test_timeout_reports_and_other_specs_survive(self):
        specs = [_SleepSpec(300.0, 0), _SleepSpec(0.05, 1)]
        outcomes = run_batch(specs, n_jobs=2, run_options=RunOptions(timeout=0.75))
        assert not outcomes[0].ok
        assert "timed out after" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].result == 1

    def test_timeout_retry_recovers(self, tmp_path):
        flag = str(tmp_path / "stalled")
        specs = [_StallOnceSpec(flag, 9), _SleepSpec(0.05, 1)]
        outcomes = run_batch(
            specs, n_jobs=2, run_options=RunOptions(timeout=0.75, retries=1))
        assert [o.ok for o in outcomes] == [True, True]
        assert outcomes[0].result == 9
        assert outcomes[0].attempts == 2

    def test_serial_timeout_enforced_and_batch_survives(self):
        # Regression: jobs=1 used to ignore timeout= entirely, so one
        # runaway cell could hang a serial CI grid run forever.  The
        # engine's monotonic run deadline now cuts the spec short, the
        # retry is charged like a pool-path timeout, and later specs
        # still run with a fresh deadline.
        specs = [_SlowSimSpec(0), _SleepSpec(0.05, 1)]
        outcomes = run_batch(
            specs, n_jobs=1, run_options=RunOptions(timeout=0.5, retries=1))
        assert not outcomes[0].ok
        assert "timed out after" in outcomes[0].error
        assert outcomes[0].attempts == 2  # initial dispatch + one retry
        assert outcomes[1].ok and outcomes[1].result == 1

    def test_unpicklable_result_fails_only_offender(self):
        # Regression: the chunked dispatcher stamped the pickling error
        # onto every spec that shared the offender's chunk.
        specs = [
            _SleepSpec(0.05, 0),
            _UnpicklableResultSpec(),
            _SleepSpec(0.05, 2),
            _SleepSpec(0.05, 3),
        ]
        outcomes = run_batch(specs, n_jobs=2)
        assert [o.ok for o in outcomes] == [True, False, True, True]
        assert outcomes[1].result is None
        assert [o.result for o in outcomes if o.ok] == [0, 2, 3]

    def test_in_process_and_pool_settle_a_schedule_alike(self, tmp_path):
        # One dispatch loop drives both executors, so the same schedule
        # (clean specs, a raising spec, a run that overruns its timeout
        # and its one retry) ends the same way at n_jobs=1 and 2.
        specs = [_SleepSpec(0.05, 0), _BoomSpec(), _SlowSimSpec(2),
                 _SleepSpec(0.05, 3)]
        seen = {}
        for n_jobs in (1, 2):
            base = str(tmp_path / f"batch-{n_jobs}.jsonl")
            outcomes = run_batch(specs, n_jobs=n_jobs, run_options=RunOptions(
                timeout=0.5, retries=1, telemetry=base))
            (batch,) = [r for r in read_trace(base)
                        if r["kind"] == "metrics" and r.get("scope") == "batch"]
            counters = {k: batch["metrics"][f"batch.sched.{k}"]
                        for k in ("outcomes", "timeouts", "retries")}
            errors = [(o.error.splitlines()[0], o.error.splitlines()[-1])
                      for o in outcomes if not o.ok]
            assert outcomes[2].attempts == 2, n_jobs
            seen[n_jobs] = ([o.ok for o in outcomes], errors, counters)
        assert seen[1] == seen[2]
        assert seen[1][0] == [True, False, False, True]
        assert seen[1][1][1] == ("timed out after 0.5s (attempt 2)",) * 2
        assert seen[1][2] == {"outcomes": 4, "timeouts": 2, "retries": 1}

    def test_early_close_kills_running_workers(self, tmp_path):
        # Regression: breaking out of iter_batch only cancelled queued
        # specs, so interpreter exit waited for the running ones (15 s
        # here).  The closed batch's trace must still merge and read.
        base = tmp_path / "batch.jsonl"
        script = tmp_path / "early_close.py"
        script.write_text(
            "import sys, time\n"
            "from repro.experiments.options import RunOptions\n"
            "from repro.experiments.parallel import iter_batch\n"
            "class Boom:\n"
            "    def execute(self):\n"
            "        raise ValueError('boom')\n"
            "class Sleep:\n"
            "    def execute(self):\n"
            "        time.sleep(15.0)\n"
            "for _ in iter_batch([Boom(), Sleep(), Sleep()], n_jobs=2,\n"
            "                    run_options=RunOptions(telemetry=sys.argv[1])):\n"
            "    break\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        start = time.monotonic()
        subprocess.run([sys.executable, str(script), str(base)], env=env,
                       check=True, timeout=60)
        assert time.monotonic() - start < 5.0
        kinds = [r["kind"] for r in read_trace(str(base))]
        assert kinds.count("sched.outcome") == 1
        assert kinds[-1] == "metrics"

    def test_deterministic_exceptions_are_not_retried(self):
        outcomes = run_batch(
            [_BoomSpec(), _SleepSpec(0.05, 1)], n_jobs=2,
            run_options=RunOptions(retries=3),
        )
        assert not outcomes[0].ok
        assert "kaboom" in outcomes[0].error
        assert outcomes[0].attempts == 1  # failed once, never re-dispatched
        assert outcomes[1].ok


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform has no spawn start method",
)
class TestSpawnStartMethod:
    def test_spawn_matches_serial_results(self):
        down = _down()
        specs = [
            RunSpec(
                cc=proprate_spec(0.020 + 0.020 * i),
                downlink=down,
                duration=3.0,
                measure_start=1.0,
                name=f"spawned-{i}",
            )
            for i in range(3)
        ]
        serial = collect(run_batch(specs, n_jobs=1))
        spawned = collect(
            run_batch(specs, n_jobs=2, start_method="spawn")
        )
        assert [r.summary() for r in serial] == [
            r.summary() for r in spawned
        ]

    def test_spawn_streams_and_detaches(self):
        down = _down()
        specs = [
            RunSpec(
                cc=proprate_spec(0.040),
                downlink=down,
                duration=2.0,
                measure_start=0.5,
                name=f"s{i}",
            )
            for i in range(2)
        ]
        outcomes = list(iter_batch(specs, n_jobs=2, start_method="spawn"))
        assert sorted(o.index for o in outcomes) == [0, 1]
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.result.collector is None
            assert outcome.result.sender is None
