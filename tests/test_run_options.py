"""``RunOptions``: one declaration of the run/batch settings.

A function that *consumes* a setting names it; a function that only
*forwards* settings takes the value.  The structural guard pins that
rule, and the spawn test pins "only the per-run part reaches a worker".
"""

import ast
import dataclasses
import inspect
import json
import multiprocessing
import pathlib
from unittest import mock

import pytest

import repro
import repro.experiments.parallel as parallel
from repro.experiments.algorithms import run_shootout
from repro.experiments.contention_grid import GridCellSpec, run_grid
from repro.experiments.frontier import (
    iter_frontier,
    nfl_convergence,
    sweep_frontier,
)
from repro.experiments.options import RunOptions
from repro.experiments.parallel import RunSpec, iter_batch, run_batch
from repro.obs.analyze import read_trace
from tests.helpers import isp_traces

SETTINGS = {f.name for f in dataclasses.fields(RunOptions)}
FORWARDERS = (run_shootout, sweep_frontier, iter_frontier, nfl_convergence,
              run_grid, run_batch, iter_batch)
SPECS = (RunSpec, GridCellSpec)


def _calls(names):
    """``(path, enclosing class or "", name)`` of every call to one of
    ``names`` in the package source, paths relative to ``repro/``."""
    root = pathlib.Path(repro.__file__).parent
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in names:
                    found.append((path, scope, name))
            inner = child.name if isinstance(child, ast.ClassDef) else scope
            visit(child, path, inner)

    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path.relative_to(root).as_posix(), "")
    return found


class TestOneDeclaration:
    def test_the_seven_settings(self):
        assert SETTINGS == {"audit", "telemetry", "sampling", "profile",
                            "timeout", "retries", "on_outcome"}

    @pytest.mark.parametrize("fn", FORWARDERS, ids=lambda f: f.__name__)
    def test_forwarders_take_the_value_not_the_settings(self, fn):
        params = inspect.signature(fn).parameters
        assert not SETTINGS & set(params)
        assert params["run_options"].default is None

    @pytest.mark.parametrize("cls", SPECS, ids=lambda c: c.__name__)
    def test_specs_carry_one_field(self, cls):
        names = {f.name for f in dataclasses.fields(cls)}
        assert not SETTINGS & names
        assert "run_options" in names

    def test_observer_setup_is_written_only_under_obs(self):
        # Resolving observers and closing a scope's telemetry (phase
        # timings, sampling drops) each have one home, in repro.obs.
        guarded = {"activate_profiler", "deactivate_profiler",
                   "resolve_tracer", "flush_into", "drain_dropped"}
        assert [f"{path}:{name}" for path, _, name in _calls(guarded)
                if not path.startswith("obs/")] == []

    def test_one_timing_instrument(self):
        # Timing inside the package is the phase profiler's; the only
        # other clock reads are the two behind the run.timing.wall_s
        # gauge.  A second timer (a per-ACK probe, a hook wrapper) would
        # have to read the clock somewhere else.
        sites = [(path, scope) for path, scope, _ in
                 _calls({"perf_counter", "process_time"})
                 if path != "obs/prof.py"]
        assert sites == [("experiments/runner.py", "ExperimentHarness")] * 2

    def test_only_the_in_process_executor_sets_a_run_deadline(self):
        # A second serial dispatch loop would need its own deadline.
        sites = [(path, scope) for path, scope, _ in
                 _calls({"set_run_deadline"})]
        assert sites and set(sites) == {
            ("experiments/parallel.py", "_InProcessExecutor")}


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform has no spawn start method",
)
def test_only_the_per_run_part_reaches_a_spawned_worker(tmp_path):
    # The callback is a lambda: were it (or timeout/retries) stamped onto
    # the specs, pickling them for a spawned worker would fail.
    seen = []
    base = str(tmp_path / "batch.jsonl")
    options = RunOptions(
        on_outcome=lambda o: seen.append(o.index), timeout=30, retries=1,
        audit=True, telemetry=base,
    )
    real = parallel.iter_batch

    def spawning(specs, **kwargs):
        return real(specs, **{**kwargs, "start_method": "spawn"})

    down, up = isp_traces("A", "stationary", 10.0)
    names = ["PR(M)", "CUBIC", "BBR"]
    with mock.patch.object(parallel, "iter_batch", spawning):
        results = run_shootout(down, up, names=names, duration=3.0,
                               measure_start=1.0, n_jobs=2,
                               run_options=options)
    assert list(results) == names
    assert sorted(seen) == [0, 1, 2]
    records = read_trace(base)
    assert {r["run"] for r in records if "run" in r} == {0, 1, 2}
    assert sum(r["kind"] == "run.end" for r in records) == 3


def test_per_run_part_is_picklable_and_complete():
    import pickle

    options = RunOptions(audit=True, telemetry="batch.jsonl",
                         sampling="queue.sample:every=2", profile=True,
                         timeout=5.0, retries=2, on_outcome=lambda o: None)
    part = pickle.loads(pickle.dumps(options.per_run("part.jsonl")))
    assert part == RunOptions(audit=True, telemetry="part.jsonl",
                              sampling="queue.sample:every=2", profile=True)
    assert json.dumps(dataclasses.asdict(part))  # plain data only
