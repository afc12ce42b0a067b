"""Flow-level fluid tier: engine, controllers, scenarios, exports.

The xval CI gate (scripts/check_fluid_xval.py) pins fluid-vs-packet
agreement; these tests pin the fluid tier's *internal* contract —
target tracking, conservation, determinism, handover mechanics, loss
epochs, and the [0, 1] bounds the report metrics promise.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid import (
    FluidFlowSpec,
    HandoverSpec,
    TowerSpec,
    fan_in_scenario,
    run_fluid,
    tower_for_label,
)
from repro.report import render_fluid_towers, report_to_json

RATE = 1e6  # bytes/s, the 8 Mbps wired bottleneck


def _pr(name="pr", target=0.040, **kw):
    return FluidFlowSpec(name=name, controller="proprate",
                         target_tbuff=target, **kw)


def _cubic(name="cu", **kw):
    return FluidFlowSpec(name=name, controller="cubic", **kw)


class TestSingleFlow:
    def test_proprate_tracks_target(self):
        report = run_fluid([_pr()], [TowerSpec(rate=RATE)], 30.0, dt=0.002)
        flow = report.flows[0]
        # Full utilization at a standing queue near the target — the
        # §3 design point (avg ≈ target, Dmax ≈ 1.5·T for PR at 40 ms).
        assert flow.utilization == pytest.approx(1.0, abs=0.02)
        assert flow.avg_tbuff == pytest.approx(0.040, rel=0.25)
        assert flow.max_tbuff < 0.100
        assert flow.loss_epochs == 0

    def test_cubic_fills_buffer_and_loses(self):
        report = run_fluid(
            [_cubic()], [TowerSpec(rate=RATE, buffer_packets=300)],
            30.0, dt=0.002,
        )
        flow = report.flows[0]
        assert flow.utilization == pytest.approx(1.0, abs=0.02)
        # Loss-based probing must overflow the 450 KB buffer repeatedly
        # and ride near the resulting ~0.45 s ceiling.
        assert flow.loss_epochs >= 3
        assert flow.max_tbuff == pytest.approx(0.45, rel=0.10)

    def test_delivered_bytes_conserved(self):
        report = run_fluid([_pr()], [TowerSpec(rate=RATE)], 20.0, dt=0.002,
                           measure_start=5.0)
        flow = report.flows[0]
        window = flow.measure_end - flow.measure_start
        # Goodput is delivered bytes over the window, and delivery
        # can't exceed the bottleneck's capacity over that window.
        assert flow.goodput * window == pytest.approx(flow.delivered_bytes)
        assert flow.delivered_bytes <= RATE * window * (1 + 1e-9)

    def test_flow_starting_late_measures_late(self):
        report = run_fluid(
            [_pr(start=12.0)], [TowerSpec(rate=RATE)], 20.0,
            measure_start=5.0,
        )
        assert report.flows[0].measure_start == 12.0
        assert report.flows[0].goodput > 0


class TestContention:
    def test_two_proprate_flows_split_fairly(self):
        flows = [_pr("a"), _pr("b")]
        report = run_fluid(flows, [TowerSpec(rate=2 * RATE)], 30.0,
                           dt=0.002)
        assert report.jfi == pytest.approx(1.0, abs=0.01)
        for flow in report.flows:
            assert flow.utilization == pytest.approx(0.5, abs=0.05)

    def test_cubic_starves_proprate(self):
        # The paper's coexistence result: a loss-based competitor fills
        # the buffer, the delay-based flow backs off.
        flows = [_pr("pr"), _cubic("cu")]
        report = run_fluid(
            flows, [TowerSpec(rate=2 * RATE, buffer_packets=300)],
            30.0, dt=0.002,
        )
        by_name = {f.name: f for f in report.flows}
        assert by_name["cu"].goodput > 2 * by_name["pr"].goodput
        assert report.jfi < 0.9

    def test_total_delivery_bounded_by_capacity(self):
        flows = [_pr(f"f{i}") for i in range(4)]
        report = run_fluid(flows, [TowerSpec(rate=RATE)], 20.0)
        window = report.flows[0].measure_end - report.flows[0].measure_start
        total = sum(f.delivered_bytes for f in report.flows)
        assert total <= RATE * window * (1 + 1e-9)


class TestHandover:
    def test_handover_moves_flow(self):
        towers = [TowerSpec(name="a", rate=RATE),
                  TowerSpec(name="b", rate=RATE)]
        report = run_fluid(
            [_pr()], towers, 20.0,
            handovers=[HandoverSpec(time=10.0, flow=0, to_tower=1)],
        )
        assert report.handovers_applied == 1
        assert report.flows[0].handovers == 1
        assert report.flows[0].final_tower == 1
        # The flow kept delivering on both sides of the migration.
        assert report.flows[0].utilization > 0.8

    def test_same_tower_handover_is_noop(self):
        report = run_fluid(
            [_pr()], [TowerSpec(rate=RATE)], 10.0,
            handovers=[HandoverSpec(time=5.0, flow=0, to_tower=0)],
        )
        assert report.handovers_applied == 0
        assert report.flows[0].handovers == 0

    def test_handover_to_idle_tower_recovers_rate(self):
        # Two flows share tower a; one migrates to idle tower b and
        # should recover toward full capacity there.
        towers = [TowerSpec(name="a", rate=RATE),
                  TowerSpec(name="b", rate=RATE)]
        flows = [_pr("stay"), _pr("move")]
        report = run_fluid(
            flows, towers, 30.0, measure_start=20.0,
            handovers=[HandoverSpec(time=10.0, flow=1, to_tower=1)],
        )
        by_name = {f.name: f for f in report.flows}
        assert by_name["move"].goodput == pytest.approx(RATE, rel=0.05)
        assert by_name["stay"].goodput == pytest.approx(RATE, rel=0.05)


class TestDeterminismAndExport:
    def test_repeated_run_byte_identical(self, tmp_path):
        flows, towers, handovers = fan_in_scenario(
            40, 3, 8.0, mix="pr-vs-cubic", handover_count=6,
        )
        paths = []
        for i in range(2):
            report = run_fluid(flows, towers, 8.0, handovers=handovers,
                               measure_start=2.0)
            path = report_to_json(report.to_dict(), tmp_path / f"r{i}.json")
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_to_dict_json_safe(self):
        report = run_fluid([_pr(start=9.0)], [TowerSpec(rate=RATE)], 10.0,
                           measure_start=9.9)
        # A barely-measured flow must still serialize (NaN → null).
        payload = json.dumps(report.to_dict(), allow_nan=False)
        assert "repro.fluid/1" in payload

    def test_tower_panel_renders(self):
        flows, towers, handovers = fan_in_scenario(
            20, 2, 6.0, mix="pr-self", handover_count=2,
        )
        report = run_fluid(flows, towers, 6.0, handovers=handovers,
                           measure_start=2.0)
        panel = render_fluid_towers(report)
        assert "tower0" in panel and "jfi" in panel


class TestObserverOnly:
    """Telemetry, sampling and the profiler watch the run; they must not
    change a bit of what it reports."""

    def _scenario(self):
        flows, towers, handovers = fan_in_scenario(
            24, 3, 4.0, mix="pr-adaptive", handover_count=6, seed=2)
        towers = [TowerSpec(name=t.name, rate=t.rate / 20, buffer_packets=60)
                  for t in towers]
        return flows, towers, dict(dt=0.005, measure_start=1.0,
                                   handovers=handovers)

    def test_observed_run_reduces_to_the_bare_summary(self, tmp_path):
        from repro.obs.analyze import read_trace

        flows, towers, kw = self._scenario()
        bare = run_fluid(flows, towers, 4.0, **kw)
        full_path = str(tmp_path / "full.jsonl")
        thin_path = str(tmp_path / "thin.jsonl")
        full = run_fluid(flows, towers, 4.0, telemetry=full_path,
                         profile=True, **kw)
        thin = run_fluid(flows, towers, 4.0, telemetry=thin_path,
                         sampling="fluid.tower:every=5", profile=True, **kw)
        assert repr(full.summary()) == repr(bare.summary())
        assert repr(thin.summary()) == repr(bare.summary())
        assert full.to_dict() == bare.to_dict() == thin.to_dict()
        assert bare.handovers_applied > 0
        assert sum(f.loss_epochs for f in bare.flows) > 0

        # fluid.tower cadence: one sample per tower every 100 ms of
        # simulated time (every 20th 5 ms step), thinned 5:1 per tower
        # when sampled.
        events = read_trace(full_path)
        tower_events = [e for e in events if e["kind"] == "fluid.tower"]
        n_samples = len(range(0, bare.steps, 20))
        assert len(tower_events) == n_samples * len(towers)
        assert [e["t"] for e in tower_events if e["tower"] == 0] == [
            pytest.approx(step * 0.005)
            for step in range(0, bare.steps, 20)
        ]
        thin_events = read_trace(thin_path)
        thin_towers = [e for e in thin_events if e["kind"] == "fluid.tower"]
        assert 0 < len(thin_towers) < len(tower_events) / 3
        for trace in (events, thin_events):
            kinds = {e["kind"] for e in trace}
            assert {"fluid.run", "fluid.handover", "fluid.loss",
                    "fluid.end", "metrics"} <= kinds
            assert sum(e["kind"] == "fluid.handover" for e in trace) \
                == bare.handovers_applied
            (metrics_rec,) = [e for e in trace if e["kind"] == "metrics"]
            metrics = metrics_rec["metrics"]
            assert metrics["run.fluid.steps"] == bare.steps
            assert metrics["run.fluid.handovers"] == bare.handovers_applied
            assert metrics["run.fluid.loss_epochs"] == sum(
                f.loss_epochs for f in bare.flows)
            assert metrics["run.timing.prof.fluid.integrate.calls"] == 1


class TestValidation:
    def test_tower_needs_exactly_one_capacity(self):
        with pytest.raises(ValueError):
            TowerSpec()
        with pytest.raises(ValueError):
            TowerSpec(rate=RATE, trace=tower_for_label(
                "cellular:A-stationary", 10.0).trace)

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="unknown fluid controller"):
            run_fluid(
                [FluidFlowSpec(name="x", controller="vegas")],
                [TowerSpec(rate=RATE)], 5.0, measure_start=1.0,
            )

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError, match="references tower"):
            run_fluid([_pr(tower=3)], [TowerSpec(rate=RATE)], 5.0)
        with pytest.raises(ValueError, match="references flow"):
            run_fluid([_pr()], [TowerSpec(rate=RATE)], 5.0,
                      handovers=[HandoverSpec(1.0, 5, 0)])

    @pytest.mark.parametrize("duration, window", [
        (3.0, {}),                                  # default 5 s warm-up
        (3.0, {"measure_start": 3.0}),              # empty window
        (3.0, {"measure_start": 1.0, "measure_end": 9.0}),
        (3.0, {"measure_start": 2.0, "measure_end": 1.0}),
        (3.0, {"measure_start": -1.0}),
        (9.0, {"measure_start": float("nan")}),
        (9.0, {"measure_start": 1.0, "measure_end": float("inf")}),
    ])
    def test_degenerate_measure_window_rejected(self, duration, window):
        # These used to produce all-zero goodput rows (or goodput over a
        # window longer than the run) and exit clean.
        with pytest.raises(ValueError, match=r"measure window.*--warmup"):
            run_fluid([_pr()], [TowerSpec(rate=RATE)], duration, **window)

    def test_measure_window_error_names_the_values(self):
        with pytest.raises(ValueError, match=r"\[1\.0, 9\.0\).*3\.0 s run"):
            run_fluid([_pr()], [TowerSpec(rate=RATE)], 3.0,
                      measure_start=1.0, measure_end=9.0)

    def test_measure_window_bounds_inclusive_of_run(self):
        report = run_fluid([_pr()], [TowerSpec(rate=RATE)], 3.0,
                           measure_start=0.0, measure_end=3.0)
        assert report.flows[0].goodput > 0

    def test_spec_errors_reported_before_window_errors(self):
        with pytest.raises(ValueError, match="references tower"):
            run_fluid([_pr(tower=3)], [TowerSpec(rate=RATE)], 3.0)

    def test_cli_rejects_warmup_not_shorter_than_duration(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["fluid", "--duration", "4", "--flows", "4",
                  "--towers", "1"])
        assert exit_info.value.code not in (0, None)
        assert "repro fluid: measure window" in str(exit_info.value.code)
        assert "--warmup" in str(exit_info.value.code)
        assert "tower" not in capsys.readouterr().out  # no table printed

    def test_tower_label_vocabulary(self):
        wired = tower_for_label("wired:8mbps", 10.0)
        assert wired.rate == pytest.approx(1e6)
        cellular = tower_for_label("cellular:A-stationary", 10.0)
        assert cellular.trace is not None
        with pytest.raises(ValueError, match="unknown trace label"):
            tower_for_label("satellite:geo", 10.0)

    def test_capacity_profile_matches_trace(self):
        tower = tower_for_label("cellular:B-mobile", 10.0)
        profile = tower.capacity_profile(10.0, 0.1)
        assert profile.shape == (100,)
        total = profile.sum() * 0.1
        assert total == pytest.approx(
            tower.trace.capacity_bytes(0.0, 10.0), rel=0.01
        )


class TestFanInScenario:
    def test_deterministic_and_complete(self):
        a = fan_in_scenario(100, 4, 10.0, mix="pr-heavy", handover_count=10)
        b = fan_in_scenario(100, 4, 10.0, mix="pr-heavy", handover_count=10)
        assert a == b
        flows, towers, handovers = a
        assert len(flows) == 100 and len(towers) == 4
        assert len(handovers) == 10
        assert all(0 <= h.flow < 100 and 0 <= h.to_tower < 4
                   for h in handovers)

    def test_seed_rotates_assignment(self):
        a = fan_in_scenario(10, 3, 10.0, seed=0)[0]
        b = fan_in_scenario(10, 3, 10.0, seed=1)[0]
        assert [f.tower for f in a] != [f.tower for f in b]

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown mix"):
            fan_in_scenario(4, 2, 10.0, mix="bbr-self")


class TestAdaptiveBank:
    """The §6 adaptive-target rule vectorized over the fleet."""

    def _bank(self, target=0.080, min_target=0.005, rtt=0.040):
        from repro.fluid.controllers import AdaptivePropRateBank

        return AdaptivePropRateBank([0], [rtt], [0.0], 0.005,
                                    [target], [min_target])

    def test_two_consecutive_episodes_shrink(self):
        bank = self._bank(target=0.080)
        threshold0 = float(bank.threshold[0])
        hit = np.array([True])
        assert bank.on_overflow(1.0, hit) == 1
        assert bank.target[0] == pytest.approx(0.080)  # first: no shrink
        assert bank.on_overflow(2.0, hit) == 1
        assert bank.target[0] == pytest.approx(0.080 * 0.7)
        # The shrink re-derives the fill/drain operating point.
        assert bank.threshold[0] != pytest.approx(threshold0)
        assert bank.target_adjustments[0] == 1

    def test_episode_memory_boundary_inclusive(self):
        from repro.core.adaptive import EPISODE_MEMORY

        bank = self._bank(target=0.080)
        hit = np.array([True])
        bank.on_overflow(1.0, hit)
        # Exactly EPISODE_MEMORY apart still counts as consecutive.
        bank.on_overflow(1.0 + EPISODE_MEMORY, hit)
        assert bank.target[0] == pytest.approx(0.080 * 0.7)

    def test_per_rtt_holdoff_coalesces_burst(self):
        bank = self._bank(target=0.080, rtt=0.040)
        hit = np.array([True])
        assert bank.on_overflow(1.0, hit) == 1
        assert bank.on_overflow(1.01, hit) == 0  # same burst, one epoch
        assert bank.target[0] == pytest.approx(0.080)

    def test_quiet_recovery_capped_at_configured(self):
        from repro.core.adaptive import RECOVERY_QUIET_TIME, RECOVERY_STEP

        bank = self._bank(target=0.080)
        hit = np.array([True])
        bank.on_overflow(1.0, hit)
        bank.on_overflow(2.0, hit)
        shrunk = float(bank.target[0])
        obs = np.zeros(1)
        active = np.ones(1, dtype=bool)
        # Not yet quiet long enough → no move.
        bank.rates(2.0 + RECOVERY_QUIET_TIME - 0.1, obs, obs, obs, active)
        assert bank.target[0] == pytest.approx(shrunk)
        bank.rates(2.0 + RECOVERY_QUIET_TIME, obs, obs, obs, active)
        assert bank.target[0] == pytest.approx(shrunk + RECOVERY_STEP)
        # Recovery never exceeds the configured ceiling.
        for k in range(20):
            bank.rates(10.0 + (k + 1) * RECOVERY_QUIET_TIME,
                       obs, obs, obs, active)
        assert bank.target[0] == pytest.approx(0.080)

    def test_min_target_floor(self):
        bank = self._bank(target=0.080, min_target=0.050)
        hit = np.array([True])
        for k in range(8):
            bank.on_overflow(1.0 + 0.5 * k, hit)
        assert bank.target[0] == pytest.approx(0.050)

    def test_min_target_validated(self):
        with pytest.raises(ValueError, match="min_target"):
            self._bank(target=0.040, min_target=0.080)
        with pytest.raises(ValueError, match="min_target"):
            FluidFlowSpec(name="x", controller="adaptive-proprate",
                          target_tbuff=0.040, min_target=0.080)

    def test_adaptive_detunes_on_shallow_buffer(self):
        # 40-packet buffer ≈ 60 ms at 1 MB/s; a 150 ms target overflows
        # persistently.  PR(A) must register losses, shrink, and end up
        # with fewer loss epochs than fixed-target PropRate.
        shallow = TowerSpec(rate=RATE, buffer_packets=40)
        adaptive = run_fluid(
            [FluidFlowSpec(name="pra", controller="adaptive-proprate",
                           target_tbuff=0.150)],
            [shallow], 30.0, dt=0.002,
        )
        fixed = run_fluid(
            [_pr(target=0.150)], [shallow], 30.0, dt=0.002,
        )
        assert adaptive.flows[0].controller == "adaptive-proprate"
        assert adaptive.flows[0].loss_epochs >= 1
        # The shrink pulls the flow off the buffer ceiling: an order of
        # magnitude fewer dropped bytes, far lower standing delay, and
        # near-full utilization kept.
        assert adaptive.towers[0].dropped_bytes < \
            0.1 * fixed.towers[0].dropped_bytes
        assert adaptive.flows[0].avg_tbuff < fixed.flows[0].avg_tbuff
        assert adaptive.flows[0].utilization > 0.9

    def test_pr_adaptive_mix_in_scenario(self):
        flows, towers, handovers = fan_in_scenario(
            8, 2, 6.0, mix="pr-adaptive",
        )
        assert {f.controller for f in flows} == {
            "adaptive-proprate", "cubic",
        }
        report = run_fluid(flows, towers, 6.0, measure_start=2.0)
        assert 0.0 <= report.jfi <= 1.0 + 1e-9


class TestPolicyBank:
    """Externally driven per-step action arrays (repro.env, fleet form)."""

    def test_policy_rates_drive_the_fleet(self):
        seen = []

        def policy(t, obs):
            seen.append(sorted(obs))
            return np.where(obs["active"], 2e5, 0.0)

        spec = FluidFlowSpec(name="pol", controller="policy", policy=policy)
        report = run_fluid([spec], [TowerSpec(rate=RATE)], 10.0,
                           measure_start=2.0)
        flow = report.flows[0]
        assert flow.controller == "policy"
        assert flow.goodput == pytest.approx(2e5, rel=0.05)
        assert seen and seen[0] == [
            "active", "delivered", "loss_epochs", "observed_tbuff",
            "rtt", "tbuff",
        ]

    def test_policy_bank_registers_overflow_epochs(self):
        def firehose(t, obs):
            return np.full(1, 10 * RATE)

        spec = FluidFlowSpec(name="hog", controller="policy",
                             policy=firehose)
        report = run_fluid([spec],
                           [TowerSpec(rate=RATE, buffer_packets=40)],
                           5.0, dt=0.002, measure_start=1.0)
        assert report.flows[0].loss_epochs >= 1

    def test_bad_policy_shape_rejected(self):
        def wrong(t, obs):
            return np.zeros(3)

        spec = FluidFlowSpec(name="bad", controller="policy", policy=wrong)
        with pytest.raises(ValueError, match="policy returned shape"):
            run_fluid([spec], [TowerSpec(rate=RATE)], 1.0,
                      measure_start=0.0)

    def test_policy_controller_requires_callable(self):
        with pytest.raises(ValueError, match="needs a policy"):
            run_fluid(
                [FluidFlowSpec(name="p", controller="policy")],
                [TowerSpec(rate=RATE)], 2.0, measure_start=0.0,
            )


class TestReportBounds:
    """Property tests: the report's normalized metrics stay in [0, 1]
    whatever the scenario shape."""

    @given(
        n_flows=st.integers(min_value=1, max_value=6),
        n_towers=st.integers(min_value=1, max_value=3),
        rate_mbps=st.floats(min_value=0.5, max_value=40.0),
        cubic_every=st.integers(min_value=1, max_value=3),
        stagger=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_jfi_and_utilization_bounded(self, n_flows, n_towers,
                                         rate_mbps, cubic_every, stagger):
        flows = [
            (_cubic(f"c{i}", tower=i % n_towers, start=i * stagger)
             if i % cubic_every == 0 else
             _pr(f"p{i}", tower=i % n_towers, start=i * stagger))
            for i in range(n_flows)
        ]
        towers = [TowerSpec(rate=rate_mbps * 1e6 / 8, buffer_packets=200)
                  for _ in range(n_towers)]
        report = run_fluid(flows, towers, 6.0, dt=0.01, measure_start=2.0)
        assert 0.0 <= report.jfi <= 1.0 + 1e-9
        for flow in report.flows:
            if flow.utilization is not None:
                assert 0.0 <= flow.utilization <= 1.0 + 1e-9
            assert flow.goodput >= 0.0
            assert flow.delivered_bytes >= 0.0
            assert math.isnan(flow.avg_tbuff) or flow.avg_tbuff >= 0.0
        for tower in report.towers:
            assert 0.0 <= tower.utilization <= 1.0 + 1e-9
            assert tower.peak_tbuff >= 0.0
            assert tower.dropped_bytes >= 0.0

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=8, deadline=None)
    def test_fan_in_report_bounded(self, seed):
        flows, towers, handovers = fan_in_scenario(
            24, 3, 5.0, mix="pr-vs-cubic", handover_count=4, seed=seed,
        )
        report = run_fluid(flows, towers, 5.0, dt=0.01, measure_start=1.0,
                           handovers=handovers)
        assert 0.0 <= report.jfi <= 1.0 + 1e-9
        utils = [f.utilization for f in report.flows
                 if f.utilization is not None]
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in utils)
        assert report.handovers_applied <= len(handovers)
