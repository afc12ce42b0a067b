"""Integration tests for the paper's multi-flow scenarios.

These use short constant-rate links to keep runtimes low; the full
trace-driven versions live in benchmarks/.
"""

import pytest

import repro.experiments.scenarios as scenarios
import repro.obs as obs
from repro.core.proprate import PropRate
from repro.experiments.contention_grid import goodput_shares
from repro.experiments.scenarios import (
    baseline_shift,
    contention_vs_cubic,
    self_contention,
    shallow_buffer,
    uplink_congestion,
    wired_path,
)
from repro.tcp.congestion import Bbr, Cubic
from repro.traces.generator import constant_rate_trace


@pytest.fixture(autouse=True)
def _short_contention(monkeypatch):
    """Shrink the Figure-12 timing so tests stay fast."""
    monkeypatch.setattr(scenarios, "CONTENTION_SECOND_START", 5.0)
    monkeypatch.setattr(scenarios, "CONTENTION_OVERLAP", 10.0)


def _trace(rate=1.5e6, duration=20.0):
    return constant_rate_trace(rate, duration)


class TestSelfContention:
    def test_proprate_shares_with_itself(self):
        first, second = self_contention(
            lambda: PropRate(0.080), _trace(), name="pr"
        )
        shares = goodput_shares([first.throughput, second.throughput])
        # Figure 12(a): PropRate self-contention is near-fair.
        assert 0.25 <= shares[1] <= 0.75

    def test_measurement_window_is_overlap(self):
        first, second = self_contention(Cubic, _trace())
        assert first.measure_start == 5.0
        assert first.measure_end == 15.0


class TestContentionVsCubic:
    def test_returns_both_flows(self):
        results = contention_vs_cubic(
            lambda: PropRate(0.080), _trace(), name="pr-h"
        )
        assert set(results) == {"cubic", "pr-h"}

    def test_pr_h_not_starved_by_cubic(self):
        results = contention_vs_cubic(
            lambda: PropRate(0.080), _trace(), cubic_first=True, name="pr-h"
        )
        share = results["pr-h"].throughput / (
            results["pr-h"].throughput + results["cubic"].throughput
        )
        assert share > 0.05

    def test_start_order_flag(self):
        late_algo = contention_vs_cubic(
            Bbr, _trace(), cubic_first=True, name="bbr"
        )
        early_algo = contention_vs_cubic(
            Bbr, _trace(), cubic_first=False, name="bbr"
        )
        assert set(late_algo) == set(early_algo) == {"cubic", "bbr"}

    def test_tie_start_order_is_deterministic(self, monkeypatch):
        # Regression: with simultaneous starts the flow order (and so
        # flow-id assignment and event tie-breaks) used to fall back to
        # dict-insertion order instead of the documented (start, name)
        # key.  A CUBIC-vs-CUBIC pair makes the accident visible — with
        # identical algorithms launched together, which flow gets id 0
        # decides who wins the early synchronized losses — and "aaa"
        # sorts before "cubic", so pre-fix this simulated a different
        # system than the explicit reference below.
        from repro.experiments.runner import (
            FlowSpec,
            cellular_path_config,
            run_experiment,
        )

        monkeypatch.setattr(scenarios, "CONTENTION_SECOND_START", 0.0)
        results = contention_vs_cubic(Cubic, _trace(), name="aaa")
        end = scenarios.CONTENTION_OVERLAP
        flows = [
            FlowSpec(cc_factory=Cubic, name="aaa", start=0.0,
                     measure_start=0.0, measure_end=end),
            FlowSpec(cc_factory=Cubic, name="cubic", start=0.0,
                     measure_start=0.0, measure_end=end),
        ]
        ref = {
            r.name: r
            for r in run_experiment(
                cellular_path_config(_trace()), flows, duration=end
            )
        }
        for name in ("aaa", "cubic"):
            assert results[name].summary() == ref[name].summary()


class TestUplinkCongestion:
    def test_download_and_upload_both_measured(self):
        results = uplink_congestion(
            lambda: PropRate(0.040),
            downlink_trace=_trace(rate=2.0e6),
            uplink_trace=_trace(rate=0.4e6),
            duration=12.0,
            measure_start=3.0,
        )
        assert "down" in results and "cubic-upload" in results
        assert results["cubic-upload"].throughput > 0.1e6

    def test_rate_based_download_survives_congested_uplink(self):
        """Figure 14's point: one-way-delay-driven pacing keeps the
        downlink busy even when the ACK path is saturated."""
        results = uplink_congestion(
            lambda: PropRate(0.080),
            downlink_trace=_trace(rate=2.0e6),
            uplink_trace=_trace(rate=0.4e6),
            duration=12.0,
            measure_start=3.0,
        )
        from repro.tcp.congestion import Cubic as _Cubic

        cwnd_results = uplink_congestion(
            _Cubic,
            downlink_trace=_trace(rate=2.0e6),
            uplink_trace=_trace(rate=0.4e6),
            duration=12.0,
            measure_start=3.0,
        )
        # The control information arrives seconds late, so absolute
        # throughput degrades — but unlike an ACK-clocked sender, the
        # rate-based flow stays far from stalled (Figure 14's point).
        assert results["down"].throughput > 0.35e6
        assert results["down"].throughput > 20 * cwnd_results["down"].throughput


class TestWiredPath:
    def test_known_region_runs(self):
        result = wired_path(Cubic, region="SG", duration=8.0, measure_start=2.0)
        assert result.throughput > 1.0e6

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            wired_path(Cubic, region="MARS")


class TestShallowBuffer:
    def test_cubic_loses_packets_in_shallow_buffer(self):
        result = shallow_buffer(
            Cubic, _trace(), buffer_packets=40, duration=10.0
        )
        assert result.bottleneck_drops > 0

    def test_codel_bounds_delay(self):
        droptail = shallow_buffer(
            Cubic, _trace(), buffer_packets=2000, aqm="droptail", duration=10.0
        )
        codel = shallow_buffer(
            Cubic, _trace(), buffer_packets=2000, aqm="codel", duration=10.0
        )
        assert codel.delay.mean < droptail.delay.mean


class TestThroughputShare:
    def test_shares_sum_to_one(self):
        first, second = self_contention(Cubic, _trace())
        shares = goodput_shares([first.throughput, second.throughput])
        assert sum(shares) == pytest.approx(1.0)

    def test_zero_total_handled(self):
        assert goodput_shares([0.0, 0.0]) == [0.0, 0.0]


class TestBaselineShiftScenario:
    def test_positive_shift_survivable(self):
        result = baseline_shift(
            lambda: PropRate(0.040, rdmin_window=8.0),
            _trace(duration=26.0),
            shift_delta=+0.030,
            shift_at=6.0,
            duration=25.0,
            measure_start=18.0,  # after the stale baseline aged out
        )
        assert result.utilization is not None
        assert result.utilization > 0.7

    def test_scenario_reports_capacity(self):
        from repro.tcp.congestion import NewReno

        result = baseline_shift(
            NewReno, _trace(duration=16.0), shift_delta=-0.005,
            duration=15.0, measure_start=5.0,
        )
        assert result.capacity == pytest.approx(1.5e6, rel=0.02)

    def test_writes_the_same_run_records_as_any_scenario(self, tmp_path):
        # A hand-built harness once ran without the tracer: no run.start,
        # queue samples, run metrics or run.end, so nothing to plot.
        from collections import Counter

        from repro.obs.analyze import read_trace

        def kinds(driver, **options):
            path = str(tmp_path / f"{driver.__name__}.jsonl")
            with obs.tracing(path):
                driver(Cubic, _trace(duration=7.0), duration=6.0,
                       measure_start=1.0, **options)
            return Counter(
                "metrics.run" if r["kind"] == "metrics"
                and r.get("scope") == "run" else r["kind"]
                for r in read_trace(path)
            )

        shifted = kinds(baseline_shift, shift_delta=0.010, shift_at=2.0)
        for kind in ("run.start", "metrics.run", "run.end"):
            assert shifted[kind] == 1, kind
        assert shifted["queue.sample"] == \
            kinds(shallow_buffer)["queue.sample"] > 1000
