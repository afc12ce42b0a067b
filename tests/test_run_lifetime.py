"""A finished run frees itself by reference counting.

Every run shape below is run with the cyclic garbage collector off and
its results dropped; afterwards no simulator, link, queue or sender it
built may still be alive.  A reference cycle anywhere in the run graph
keeps the whole graph until a full collection, and peak memory then
grows with the number of runs a process has done (DESIGN.md, "Run
lifetime and memory").  The checks are counts of live objects, not
timings.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.env import CcEnv
from repro.experiments.algorithms import paper_algorithms
from repro.experiments.contention_grid import MIXES, build_contention_flows
from repro.experiments.parallel import CcSpec, RunSpec, run_batch
from repro.experiments.runner import (
    ExperimentHarness,
    FlowSpec,
    cellular_path_config,
    run_experiment,
    run_single_flow,
)
from repro.experiments.scenarios import shallow_buffer, wired_path
from repro.sim.engine import Simulator
from repro.sim.link import CellularLink, WiredLink
from repro.sim.queues import DropTailQueue
from repro.tcp.application import OnOffApplication
from repro.tcp.sender import TcpSender
from repro.traces.presets import isp_trace

#: The classes whose instances must die with the run.  CoDel queues are
#: tracked through DropTailQueue.__init__.
TRACKED = (Simulator, CellularLink, WiredLink, DropTailQueue, TcpSender)

DURATION = 2.0


@pytest.fixture(scope="module")
def traces():
    return (isp_trace("A", "stationary", duration=4.0),
            isp_trace("A", "stationary", duration=4.0, direction="uplink"))


@pytest.fixture
def built(monkeypatch):
    """``(class name, weakref)`` of every tracked object constructed
    from now on."""
    refs = []
    for cls in TRACKED:
        def init(self, *args, _init=cls.__init__, _name=cls.__name__,
                 **kwargs):
            _init(self, *args, **kwargs)
            refs.append((_name, weakref.ref(self)))
        monkeypatch.setattr(cls, "__init__", init)
    return refs


def _survivors(refs):
    return sorted(name for name, ref in refs if ref() is not None)


def assert_freed(refs, run, expect=("Simulator", "CellularLink",
                                    "DropTailQueue", "TcpSender")):
    """Run ``run()`` with the cyclic collector off; every tracked object
    it built must be dead once it returns (it drops its results)."""
    gc.collect()
    gc.disable()
    try:
        run()
        survivors = _survivors(refs)
    finally:
        gc.enable()
    assert set(expect) <= {name for name, _ in refs}
    assert survivors == [], f"still alive after the run: {survivors}"


def _single(traces, name, **kwargs):
    down, up = traces

    def run():
        result = run_single_flow(paper_algorithms()[name], down, up,
                                 duration=DURATION, measure_start=0.5,
                                 **kwargs)
        # What a finished run keeps offering.
        assert result.sender.sim.events_processed > 0
        assert result.sender.acks_received > 0
        assert len(result.collector.records) == len(result.collector) > 0

    return run


@pytest.mark.parametrize("name", ["PR(M)", "CUBIC", "BBR", "PR(A)"])
def test_single_flow(built, traces, name):
    assert_freed(built, _single(traces, name))


def test_contention_mix(built, traces):
    flows, duration = build_contention_flows(
        MIXES["pr-vs-cubic"], 16, "staggered", 0.05, 0.2, overlap=1.0)

    def run():
        results = run_experiment(cellular_path_config(*traces), flows,
                                 duration)
        assert len(results) == 16

    assert_freed(built, run)
    assert sum(name == "TcpSender" for name, _ in built) == 16


def test_onoff_applications(built, traces):
    def run():
        flows = [
            FlowSpec(cc_factory=paper_algorithms()["CUBIC"], name=f"onoff-{i}",
                     application=OnOffApplication(
                         rate=2e6, on_seconds=0.05, off_seconds=0.15,
                         start=0.01 * i))
            for i in range(4)
        ]
        run_experiment(cellular_path_config(*traces), flows, DURATION,
                       measure_start=0.5)

    assert_freed(built, run)


@pytest.mark.parametrize("sampling", [None, "queue.sample:every=64;*:max=1000"],
                         ids=["full", "sampled"])
def test_telemetry(built, traces, tmp_path, sampling):
    assert_freed(built, _single(traces, "PR(M)",
                                telemetry=str(tmp_path / "run.jsonl"),
                                sampling=sampling))


def test_audit(built, traces):
    assert_freed(built, _single(traces, "PR(M)", audit=True))


def test_profile(built, traces, tmp_path):
    assert_freed(built, _single(traces, "PR(M)",
                                telemetry=str(tmp_path / "run.jsonl"),
                                profile=True))


def test_codel(built, traces):
    def run():
        shallow_buffer(paper_algorithms()["CUBIC"], traces[0], aqm="codel",
                       duration=DURATION, measure_start=0.5)

    assert_freed(built, run)


def test_wired_path(built):
    def run():
        wired_path(paper_algorithms()["PR(M)"], region="US",
                   duration=DURATION, measure_start=0.5)

    assert_freed(built, run, expect=("Simulator", "WiredLink",
                                     "DropTailQueue", "TcpSender"))


def test_run_batch_in_process(built, traces):
    specs = [RunSpec(CcSpec(name), traces[0], traces[1], duration=DURATION,
                     measure_start=0.5)
             for name in ("PR(M)", "CUBIC")]

    def run():
        outcomes = run_batch(specs, n_jobs=1)
        assert all(o.ok for o in outcomes)

    assert_freed(built, run)


class _Boom(Exception):
    pass


def _boom():
    raise _Boom("raised by a scheduled event")


@pytest.mark.parametrize("step", ["finalize", "advance"])
def test_failed_run(built, traces, step):
    def run():
        harness = ExperimentHarness(
            cellular_path_config(*traces),
            [FlowSpec(cc_factory=paper_algorithms()["CUBIC"])],
            DURATION, measure_start=0.5)
        harness.sim.schedule_at(1.0, _boom)
        try:
            if step == "advance":
                harness.advance(DURATION)
            else:
                harness.finalize()
        except _Boom:
            pass
        else:
            raise AssertionError("the scheduled event did not raise")
        with pytest.raises(RuntimeError, match="closed"):
            harness.finalize()

    assert_freed(built, run)


def test_env_reset_frees_the_abandoned_episode(built, traces):
    env = CcEnv(traces[0], traces[1], inner_cc=paper_algorithms()["PR(M)"],
                duration=DURATION, measure_start=0.5)
    gc.collect()
    gc.disable()
    try:
        env.reset()
        env.step(None)
        first = list(built)
        env.reset()
        survivors = _survivors(first)
        live = _survivors(built[len(first):])
    finally:
        gc.enable()
        env.close()
    assert {"Simulator", "TcpSender"} <= {name for name, _ in first}
    assert survivors == [], f"abandoned episode still alive: {survivors}"
    assert "Simulator" in live  # the new episode is untouched


def test_env_close_frees_the_episode(built, traces):
    def run():
        env = CcEnv(traces[0], traces[1],
                    inner_cc=paper_algorithms()["PR(M)"],
                    duration=DURATION, measure_start=0.5)
        env.reset()
        env.step(None)
        env.close()

    assert_freed(built, run)


def test_compiled_trace_pickles_without_its_schedule(traces):
    trace = traces[0]
    schedule = trace.compiled()
    blob = pickle.dumps(trace)
    # The opportunity array once, not a second boxed copy beside it.
    assert len(blob) < 1.25 * trace.opportunity_times.nbytes
    copy = pickle.loads(blob)
    assert copy.opportunity_times.tolist() == trace.opportunity_times.tolist()
    assert copy.duration == trace.duration
    assert list(copy.compiled().times_view) == list(schedule.times_view)
    assert trace.compiled() is schedule
