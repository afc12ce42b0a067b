"""Tests for the algorithm line-up, control-cost phase and the claim
catalogue."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.obs as obs
from repro.core.proprate import PropRate
from repro.env import CcEnv, rollout
from repro.experiments.algorithms import (
    PR_TARGETS,
    paper_algorithms,
    proprate_factory,
)
from repro.experiments.runner import canonical_summary, run_single_flow
from repro.__main__ import main
from repro.reproduce import EXPERIMENTS, Experiment, describe_all
from repro.reproduce.paper import TABLE3
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


ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestRegistry:
    """The claim catalogue (repro.reproduce) is the one artifact index."""

    def test_every_paper_artifact_present(self):
        for exp_id in ("T2", "T3", "T4", "F1-3", "F7a", "F7b", "F8", "F9",
                       "F10", "F11", "F12a", "F12b", "F13", "F14", "D1"):
            assert exp_id in EXPERIMENTS

    def test_describe_all_lists_everything(self):
        text = describe_all()
        for exp in EXPERIMENTS.values():
            assert exp.id in text
            assert exp.description and exp.description in text

    def test_design_index_matches_catalogue(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        section = design.split("\n## 5.", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1].strip() for line in section.splitlines()
                if line.startswith("| ") and not line.startswith("| Id ")]
        assert sorted(rows) == sorted(EXPERIMENTS)

    def test_reproduce_writes_the_tracked_table(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        main(["reproduce", "T3"])
        out = tmp_path / "benchmarks" / "results"
        assert ((out / "table3_taxonomy.txt").read_bytes()
                == (RESULTS / "table3_taxonomy.txt").read_bytes())
        claims = json.loads((out / "claims.json").read_text())
        assert len(claims) == 3 * len(TABLE3)
        assert all(c["id"].startswith("T3.") and c["pass"] for c in claims)
        assert "33/33 claims hold" in capsys.readouterr().out

    def test_a_failed_claim_exits_1_and_is_named(self, tmp_path, monkeypatch,
                                                 capsys):
        def run(r):
            """A stand-in artifact with one claim that holds, one that does not."""
            r.claim("holds", 1.0, "<", 2.0)
            r.claim("fails", 3.0, "<", 2.0)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(EXPERIMENTS, "X1", Experiment("X1", "stand-in", run))
        with pytest.raises(SystemExit) as exc_info:
            main(["reproduce", "X1"])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "X1.fails: 3.0 < 2.0" in err and "X1.holds" not in err
        claims = json.loads(
            (tmp_path / "benchmarks" / "results" / "claims.json").read_text())
        assert [(c["id"], c["pass"]) for c in claims] == [
            ("X1.holds", True), ("X1.fails", False)]

    def test_a_crashing_artifact_keeps_the_claims_before_it(self, tmp_path,
                                                           monkeypatch):
        def first(r):
            """A stand-in artifact that finishes."""
            r.claim("done", 1.0, "<", 2.0)

        def second(r):
            """A stand-in artifact that raises after one claim."""
            r.claim("before_crash", 1.0, "<", 2.0)
            raise RuntimeError("stand-in crash")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(EXPERIMENTS, "X1", Experiment("X1", "stand-in", first))
        monkeypatch.setitem(EXPERIMENTS, "X2", Experiment("X2", "stand-in", second))
        with pytest.raises(RuntimeError, match="stand-in crash"):
            main(["reproduce", "X1", "X2"])
        claims = json.loads(
            (tmp_path / "benchmarks" / "results" / "claims.json").read_text())
        assert [(c["id"], c["pass"]) for c in claims] == [
            ("X1.done", True), ("X2.before_crash", True)]

    def test_an_unknown_id_exits_2_and_writes_nothing(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            main(["reproduce", "T3", "F99"])
        assert exc_info.value.code == 2
        (message,) = [ln for ln in capsys.readouterr().err.splitlines()
                      if "error:" in ln]
        assert "F99" in message
        assert list(tmp_path.iterdir()) == []

    def test_the_harness_does_not_import_the_catalogue(self):
        # Every bench workload imports repro.experiments; the catalogue
        # and the layers only it needs must stay off that import path.
        heavy = ("repro.fluid", "repro.report", "repro.reproduce",
                 "repro.experiments.contention_grid", "repro.metrics.compare")
        code = ("import sys, repro.experiments; "
                f"print([m for m in {heavy!r} if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


RESULTS = ROOT / "benchmarks" / "results"

#: Committed results tables whose rows are the full ``paper_algorithms()``
#: line-up, one row per name in table order.
LINEUP_TABLES = ("fig7a_stationary.txt", "fig7a_stationary.csv",
                 "fig7b_mobile.txt", "fig7b_mobile.csv", "fig8_sprint.txt",
                 "fig11_lte.txt", "fig14_uplink.txt")


class TestCommittedResults:
    """A results file regenerated after the line-up grew must be
    committed with the new rows (the benchmarks rewrite these files, but
    only CI's figure runs would notice a stale one)."""

    @pytest.mark.parametrize("name", LINEUP_TABLES)
    def test_table_has_a_row_per_algorithm(self, name):
        lines = (RESULTS / name).read_text().splitlines()
        if name.endswith(".csv"):
            rows = [line.split(",")[0] for line in lines[1:]]
        else:
            rows = [line.split()[0] for line in lines if line.strip()]
        assert rows == list(paper_algorithms())

    def test_table3_has_a_row_per_algorithm(self):
        lines = (RESULTS / "table3_taxonomy.txt").read_text().splitlines()
        rows = [line.split()[0] for line in lines[1:] if line.strip()]
        assert rows == [factory().name
                        for factory in paper_algorithms().values()]
