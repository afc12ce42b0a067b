"""The N×M contention/fairness grid (repro.experiments.contention_grid)."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.contention_grid import (
    FULL_GRID,
    MIXES,
    REDUCED_GRID,
    CellResult,
    GridCellSpec,
    GridConfig,
    build_contention_flows,
    expand_grid,
    goodput_shares,
    grid_size,
    reduce_cell,
    run_grid,
)
from repro.experiments.options import RunOptions
from repro.experiments.runner import DEFAULT_PROP_DELAY
from repro.metrics.stats import DelaySummary, jain_fairness
from repro.report.export import report_to_json
from repro.report.heatmap import render_grid_heatmap, render_grid_heatmaps

#: A one-cell grid small enough to run inside a unit test.
TINY_GRID = GridConfig(
    mixes=("pr-vs-cubic",),
    flow_counts=(2,),
    patterns=("staggered",),
    traces=("wired:4mbps",),
    stagger=0.25,
    settle=1.0,
    overlap=3.0,
)


class _FakeDelay:
    def __init__(self, mean):
        self.mean = mean


class _FakeResult:
    """The slice of FlowResult the reducer reads."""

    def __init__(self, name, throughput, delay_mean):
        self.name = name
        self.throughput = throughput
        self.delay = _FakeDelay(delay_mean)


def _fake_spec(**overrides):
    fields = dict(
        mix="pr-vs-cubic",
        n_flows=2,
        pattern="staggered",
        trace_label="wired:4mbps",
        entries=MIXES["pr-vs-cubic"],
        downlink=None,
        stagger=0.25,
        settle=1.0,
        overlap=3.0,
    )
    fields.update(overrides)
    return GridCellSpec(**fields)


class TestBuilder:
    def test_cyclic_mix_and_window(self):
        flows, duration = build_contention_flows(
            MIXES["pr-vs-cubic"], 4, "staggered",
            stagger=0.5, settle=2.0, overlap=10.0,
        )
        assert [f.name for f in flows] == [
            "pr-00", "cubic-01", "pr-02", "cubic-03"
        ]
        assert [f.start for f in flows] == [0.0, 0.5, 1.0, 1.5]
        # Common overlap: from the last start + settle, for `overlap`.
        assert all(f.measure_start == 1.5 + 2.0 for f in flows)
        assert all(f.measure_end == 3.5 + 10.0 for f in flows)
        assert duration == 13.5

    def test_simultaneous_and_late_half_patterns(self):
        flows, _ = build_contention_flows(
            MIXES["pr-self"], 3, "simultaneous",
            stagger=0.5, settle=1.0, overlap=5.0,
        )
        assert [f.start for f in flows] == [0.0, 0.0, 0.0]

        flows, _ = build_contention_flows(
            MIXES["pr-self"], 4, "late-half",
            stagger=0.5, settle=1.0, overlap=5.0,
        )
        starts = [f.start for f in flows]
        assert starts == [0.0, 0.0, 1.0, 1.0]

    def test_flows_sorted_by_start_then_name(self):
        flows, _ = build_contention_flows(
            MIXES["bbr-vs-cubic"], 4, "simultaneous",
            stagger=0.5, settle=1.0, overlap=5.0,
        )
        keys = [(f.start, f.name) for f in flows]
        assert keys == sorted(keys)

    def test_name_width_scales_past_hundred_flows(self):
        flows, _ = build_contention_flows(
            MIXES["pr-self"], 101, "simultaneous",
            stagger=0.5, settle=1.0, overlap=5.0,
        )
        assert flows[0].name == "pr-000"
        assert len({f.name for f in flows}) == 101

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_contention_flows(
                MIXES["pr-self"], 0, "simultaneous", 0.5, 1.0, 5.0
            )
        with pytest.raises(ValueError, match="start pattern"):
            build_contention_flows(
                MIXES["pr-self"], 2, "reverse", 0.5, 1.0, 5.0
            )


class TestConfig:
    def test_validates_axes(self):
        with pytest.raises(ValueError, match="unknown mix"):
            GridConfig(("nope",), (2,), ("staggered",), ("wired:4mbps",))
        with pytest.raises(ValueError, match="start pattern"):
            GridConfig(("pr-self",), (2,), ("sideways",), ("wired:4mbps",))
        with pytest.raises(ValueError, match="flow_counts"):
            GridConfig(("pr-self",), (0,), ("staggered",), ("wired:4mbps",))

    @pytest.mark.parametrize("axis", ["mixes", "flow_counts", "patterns",
                                      "traces"])
    def test_rejects_an_empty_axis(self, axis):
        with pytest.raises(ValueError, match=f"{axis} must not be empty"):
            dataclasses.replace(TINY_GRID, **{axis: ()})

    @pytest.mark.parametrize("field,value", [
        ("overlap", 0.0), ("overlap", -1.0), ("stagger", -0.1),
        ("settle", -0.1), ("buffer_packets", 0), ("aqm", "red"),
    ])
    def test_rejects_a_degenerate_setting_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            dataclasses.replace(TINY_GRID, **{field: value})

    def test_expand_matches_grid_size(self):
        for config in (TINY_GRID, REDUCED_GRID, FULL_GRID):
            baselines, cells = expand_grid(config)
            assert len(baselines) + len(cells) == grid_size(config)

    def test_expand_shares_trace_refs(self):
        baselines, cells = expand_grid(TINY_GRID)
        refs = {id(s.downlink) for s in baselines + cells}
        assert len(refs) == 1    # one trace label → one shared object

    def test_unknown_trace_label_raises(self):
        config = GridConfig(
            ("pr-self",), (2,), ("staggered",), ("satellite:geo",)
        )
        with pytest.raises(ValueError, match="trace label"):
            expand_grid(config)


class TestShares:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            goodput_shares([])

    def test_all_zero_is_all_zero(self):
        assert goodput_shares([0.0, 0.0, 0.0]) == [0.0, 0.0, 0.0]

    def test_normalizes(self):
        assert goodput_shares([3.0, 1.0]) == [0.75, 0.25]

    # -- satellite: property tests against the per-flow reference ------

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_shares_property(self, allocations):
        shares = goodput_shares(allocations)
        assert len(shares) == len(allocations)
        total = sum(allocations)
        if total == 0.0:
            assert shares == [0.0] * len(allocations)
        else:
            assert abs(sum(shares) - 1.0) < 1e-9
            for alloc, share in zip(allocations, shares):
                assert share == pytest.approx(alloc / total)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_jain_property(self, allocations):
        jain = jain_fairness(allocations)
        total = sum(allocations)
        if total == 0.0:
            # All-zero allocation is vacuously fair.
            assert jain == 1.0
            return
        # Reference formula, computed independently of numpy.  Subnormal
        # allocations can underflow v*v to zero — the library reports
        # such a sample as vacuously fair, and so does the reference.
        n = len(allocations)
        denom = n * sum(v * v for v in allocations)
        reference = 1.0 if denom == 0.0 else total ** 2 / denom
        assert jain == pytest.approx(reference, rel=1e-12)
        assert 1.0 / n - 1e-12 <= jain <= 1.0 + 1e-12

    def test_jain_single_flow_is_fair(self):
        assert jain_fairness([123.0]) == pytest.approx(1.0)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_reducer_agrees_with_reference(self, throughputs):
        """The grid reducer's jain/shares match the standalone helpers."""
        spec = _fake_spec(n_flows=len(throughputs))
        results = [
            _FakeResult(f"pr-{i:02d}", t, DEFAULT_PROP_DELAY + 0.01)
            for i, t in enumerate(throughputs)
        ]
        cell = reduce_cell(spec, results, baselines={})
        assert cell.jain == pytest.approx(jain_fairness(throughputs))
        assert cell.shares == goodput_shares(throughputs)
        assert cell.throughputs == [float(t) for t in throughputs]


class TestReducer:
    def test_inflation_against_per_label_baselines(self):
        spec = _fake_spec()
        results = [
            _FakeResult("pr-00", 1000.0, DEFAULT_PROP_DELAY + 0.040),
            _FakeResult("cubic-01", 3000.0, DEFAULT_PROP_DELAY + 0.080),
        ]
        baselines = {
            ("pr", "wired:4mbps"): 0.020,
            ("cubic", "wired:4mbps"): 0.040,
        }
        cell = reduce_cell(spec, results, baselines)
        assert cell.per_flow_inflation == [
            pytest.approx(2.0), pytest.approx(2.0)
        ]
        assert cell.tbuff_inflation == pytest.approx(2.0)
        assert cell.queueing_delay == pytest.approx(0.060)

    def test_starved_flow_contributes_nothing(self):
        spec = _fake_spec()
        results = [
            _FakeResult("pr-00", 1000.0, DEFAULT_PROP_DELAY + 0.040),
            _FakeResult("cubic-01", 0.0, float("nan")),
        ]
        baselines = {("pr", "wired:4mbps"): 0.020}
        cell = reduce_cell(spec, results, baselines)
        assert cell.per_flow_inflation == [pytest.approx(2.0), None]
        assert cell.tbuff_inflation == pytest.approx(2.0)
        # NaN never leaks into the JSON rendering.
        data = cell.to_dict()
        assert data["per_flow_inflation"] == [pytest.approx(2.0), None]
        json.dumps(data, allow_nan=False)

    def test_all_starved_cell_is_well_defined(self):
        spec = _fake_spec()
        results = [
            _FakeResult("pr-00", 0.0, float("nan")),
            _FakeResult("cubic-01", 0.0, float("nan")),
        ]
        cell = reduce_cell(spec, results, baselines={})
        assert cell.jain == 1.0
        assert cell.shares == [0.0, 0.0]
        assert cell.queueing_delay is None
        assert cell.tbuff_inflation is None
        json.dumps(cell.to_dict(), allow_nan=False)

    def test_missing_or_zero_baseline_yields_none(self):
        spec = _fake_spec()
        results = [
            _FakeResult("pr-00", 1000.0, DEFAULT_PROP_DELAY + 0.040),
            _FakeResult("cubic-01", 500.0, DEFAULT_PROP_DELAY + 0.040),
        ]
        baselines = {("pr", "wired:4mbps"): 0.0}   # cubic absent entirely
        cell = reduce_cell(spec, results, baselines)
        assert cell.per_flow_inflation == [None, None]
        assert cell.tbuff_inflation is None


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def report(self):
        return run_grid(TINY_GRID, n_jobs=1, run_options=RunOptions(audit=True))

    def test_cells_reduced(self, report):
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.mix == "pr-vs-cubic"
        assert cell.n_flows == 2
        assert cell.flow_names == ["pr-00", "cubic-01"]
        assert 0.5 - 1e-9 <= cell.jain <= 1.0 + 1e-9
        assert abs(sum(cell.shares) - 1.0) < 1e-6

    def test_baselines_cover_mix_entries(self, report):
        assert set(report.baselines) == {
            ("pr", "wired:4mbps"), ("cubic", "wired:4mbps")
        }

    def test_json_round_trip(self, report, tmp_path):
        path = report_to_json(report.to_dict(), tmp_path / "grid.json")
        data = json.loads(path.read_text(encoding="ascii"))
        assert data["format"] == "repro.grid/1"
        assert data["config"]["mixes"] == ["pr-vs-cubic"]
        assert len(data["cells"]) == 1
        assert "pr@wired:4mbps" in data["baselines"]

    def test_serial_parallel_byte_identical(self, report):
        parallel = run_grid(
            TINY_GRID, n_jobs=2, run_options=RunOptions(audit=True))
        a = json.dumps(report.to_dict(), sort_keys=True)
        b = json.dumps(parallel.to_dict(), sort_keys=True)
        assert a == b

    def test_heatmap_renders(self, report):
        text = render_grid_heatmap(report, "jain")
        assert "Jain's fairness index" in text
        assert "wired:4mbps" in text
        assert "pr-vs-cubic" in text
        both = render_grid_heatmaps(report)
        assert "t_buff inflation" in both

    def test_heatmap_handles_empty_and_missing(self):
        assert render_grid_heatmap({"cells": []}) == "(empty grid)"
        cells = [
            CellResult(
                mix="pr-self", n_flows=2, pattern="staggered",
                trace="wired:4mbps", flow_names=[], throughputs=[],
                shares=[], jain=1.0, queueing_delay=None,
                tbuff_inflation=None,
            ).to_dict()
        ]
        text = render_grid_heatmap({"cells": cells}, "tbuff_inflation")
        assert "--" in text


class TestTelemetry:
    def test_cell_trace_carries_grid_tags(self, tmp_path):
        import repro.obs as obs
        from repro.obs.analyze import read_trace

        baselines, cells = expand_grid(TINY_GRID)
        spec = cells[0]
        path = str(tmp_path / "cell.jsonl")
        tagged = GridCellSpec(
            **{**spec.__dict__, "run_options": RunOptions(telemetry=path)}
        )
        tagged.execute()
        records = read_trace(path)
        headers = [r for r in records if r["kind"] == obs.GRID_CELL]
        assert len(headers) == 1
        head = headers[0]
        assert head["mix"] == "pr-vs-cubic"
        assert head["flows"] == 2
        assert head["pattern"] == "staggered"
        assert head["trace"] == "wired:4mbps"
        assert head["baseline"] is False
        # The run's own events follow the header in the same trace.
        assert len(records) > 1

    def test_grid_batch_all_observers_serial_equals_parallel(self, tmp_path):
        from repro.experiments.parallel import collect, run_batch
        from repro.experiments.runner import canonical_summary
        from repro.obs.analyze import read_trace

        baselines, cells = expand_grid(TINY_GRID)
        specs = baselines + cells
        summaries = {}
        for n_jobs in (1, 2):
            base = str(tmp_path / f"grid-{n_jobs}.jsonl")
            results = collect(run_batch(specs, n_jobs=n_jobs,
                                        run_options=RunOptions(
                audit=True, telemetry=base, profile=True,
                sampling="queue.sample:every=4")))
            summaries[n_jobs] = [
                [canonical_summary(r.summary()) for r in cell]
                for cell in results
            ]
            records = read_trace(base)
            headers = [r for r in records if r["kind"] == "grid.cell"]
            assert sorted(r["run"] for r in headers) == [0, 1, 2]
            (batch,) = [r for r in records if r["kind"] == "metrics"
                        and r.get("scope") == "batch"]
            metrics = batch["metrics"]
            assert metrics["run.timing.prof.ack.scoreboard.calls"] > 0
            assert metrics["run.telemetry.dropped.queue.sample"] > 0
        assert summaries[1] == summaries[2]
