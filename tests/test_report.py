"""Tests for CSV export."""

import csv

import pytest

from repro.experiments.frontier import FrontierPoint
from repro.experiments.runner import FlowSpec, cellular_path_config, run_experiment
from repro.report.export import (
    flow_results_to_csv,
    frontier_to_csv,
)
from repro.tcp.congestion import NewReno
from repro.traces.generator import constant_rate_trace


@pytest.fixture(scope="module")
def sample_result():
    trace = constant_rate_trace(1.0e6, 8.0)
    return run_experiment(
        cellular_path_config(trace),
        [FlowSpec(cc_factory=NewReno, name="reno")],
        duration=6.0,
        measure_start=2.0,
    )[0]


class TestFlowResultsCsv:
    def test_roundtrip(self, sample_result, tmp_path):
        path = flow_results_to_csv({"NewReno": sample_result}, tmp_path / "f.csv")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["algorithm"] == "NewReno"
        assert float(row["throughput_kbps"]) == pytest.approx(
            sample_result.throughput_kbps, rel=0.01
        )
        assert float(row["mean_delay_ms"]) == pytest.approx(
            sample_result.delay.mean_ms, rel=0.01
        )

    def test_multiple_rows_ordered(self, sample_result, tmp_path):
        path = flow_results_to_csv(
            {"A": sample_result, "B": sample_result}, tmp_path / "f.csv"
        )
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["algorithm"] for r in rows] == ["A", "B"]


class TestFrontierCsv:
    def test_columns_and_values(self, sample_result, tmp_path):
        points = [FrontierPoint(target_tbuff=0.040, result=sample_result)]
        path = frontier_to_csv(points, tmp_path / "frontier.csv")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["target_tbuff_ms"] == "40.0"
        assert float(rows[0]["throughput_kbps"]) > 0

