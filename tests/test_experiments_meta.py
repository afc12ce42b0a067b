"""Tests for the algorithm line-up, control-cost phase and experiment
registry."""

import pathlib

import pytest

import repro.obs as obs
from repro.core.proprate import PropRate
from repro.env import CcEnv, rollout
from repro.experiments.algorithms import (
    PR_TARGETS,
    paper_algorithms,
    proprate_factory,
)
from repro.experiments.registry import EXPERIMENTS, describe_all
from repro.experiments.runner import canonical_summary, run_single_flow
from repro.tcp.congestion import Cubic
from repro.tcp.congestion.base import CongestionControl
from repro.traces.presets import isp_trace


class TestAlgorithms:
    def test_lineup_covers_table3(self):
        algos = paper_algorithms()
        for name in ("PR(L)", "PR(M)", "PR(H)", "CUBIC", "BBR", "Sprout",
                     "PCC", "Verus", "LEDBAT", "Vegas", "Westwood",
                     "PROTEUS", "RRE", "NewReno"):
            assert name in algos

    def test_factories_produce_fresh_instances(self):
        factory = paper_algorithms()["CUBIC"]
        assert factory() is not factory()

    def test_proprate_factories_use_paper_targets(self):
        algos = paper_algorithms()
        for name, target in PR_TARGETS.items():
            cc = algos[name]()
            assert isinstance(cc, PropRate)
            assert cc.target_buffer_delay == target

    def test_proprate_factory_kwargs(self):
        cc = proprate_factory(0.030, enable_feedback=False)()
        assert cc.target_buffer_delay == 0.030
        assert not cc.feedback.enabled

    def test_every_factory_builds_a_cc(self):
        for name, factory in paper_algorithms().items():
            assert isinstance(factory(), CongestionControl), name


#: The controller shapes whose hooks the sender times as ``cc.control``:
#: rate-based, window-based, and a CcEnv native replay (the hooks the
#: sender sees are the ``PolicyDriven`` adapter's).
CASES = ("PR(M)", "CUBIC", "CcEnv")


def _run_case(case):
    down = isp_trace("A", "mobile", duration=10.0)
    factory = paper_algorithms()["CUBIC" if case == "CUBIC" else "PR(M)"]
    if case == "CcEnv":
        env = CcEnv(down, inner_cc=factory, duration=4.0, measure_start=1.0)
        return rollout(env).result
    return run_single_flow(factory, down, duration=4.0, measure_start=1.0)


@pytest.fixture(scope="module")
def control_runs():
    """case → (plain result, result under a bare ambient profiler, the
    profiler's phases) — the Table-4 bench's measurement, no tracer."""
    runs = {}
    for case in CASES:
        plain = _run_case(case)
        prof = obs.activate_profiler(obs.PhaseProfiler())
        try:
            profiled = _run_case(case)
        finally:
            obs.deactivate_profiler()
        runs[case] = (plain, profiled, prof.phases)
    return runs


class TestCpuInstrumentation:
    """Table 4's control time is the profiler's ``cc.control`` phase."""

    def test_control_time_accumulates(self, control_runs):
        for case, (_, _, phases) in control_runs.items():
            calls, wall, _cpu = phases["cc.control"]
            assert calls > 0 and wall > 0.0, case
            # It nests inside the ACK path's phase.
            assert phases["ack.scoreboard"][0] > 0, case

    def test_behaviour_unchanged(self, control_runs):
        for case, (plain, profiled, _) in control_runs.items():
            assert (canonical_summary(profiled.summary())
                    == canonical_summary(plain.summary())), case

    def test_rate_cc_keeps_class(self, control_runs):
        # The hooks are shadowed on the instance; the sender's dispatch
        # decisions still read the class.
        rate = control_runs["PR(M)"][1].sender
        assert isinstance(rate.cc, PropRate) and rate.cc.is_rate_based
        assert {"on_ack", "on_tick"} <= set(vars(rate.cc))
        assert rate._on_sent is rate.cc.on_packet_sent  # timed, overridden
        window = control_runs["CUBIC"][1].sender
        assert isinstance(window.cc, Cubic)
        assert window._on_sent is None  # base no-op stays skipped
        assert "on_tick" not in vars(window.cc)


class TestRegistry:
    def test_every_paper_artifact_present(self):
        for exp_id in ("T2", "T3", "T4", "F1-3", "F7", "F8", "F9", "F10",
                       "F11", "F12", "F13", "F14", "D1"):
            assert exp_id in EXPERIMENTS

    def test_bench_files_exist(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        for exp in EXPERIMENTS.values():
            assert (root / exp.bench).exists(), exp.bench

    def test_modules_importable(self):
        import importlib

        for exp in EXPERIMENTS.values():
            for module in exp.modules:
                importlib.import_module(module)

    def test_describe_all_lists_everything(self):
        text = describe_all()
        for exp in EXPERIMENTS.values():
            assert exp.id in text
