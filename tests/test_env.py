"""Tests for the control-plane environment (repro.env, docs/env.md)."""

import math

import pytest

from repro.core.proprate import PropRate
from repro.env import (
    DEFAULT_STEP_INTERVAL,
    OBS_FIELDS,
    OBS_VERSION,
    AdaptiveTargetPolicy,
    CcEnv,
    ConstantRatePolicy,
    NativePolicy,
    Observation,
    rollout,
)
from repro.experiments.algorithms import paper_algorithms
from repro.experiments.runner import canonical_summary, run_single_flow
from repro.tcp.congestion.policy import (
    PolicyDriven,
    WindowPolicyDriven,
    policy_adapter,
)
from repro.traces.generator import constant_rate_trace
from repro.traces.presets import isp_trace


def _down(duration=12.0, rate=1.5e6):
    return constant_rate_trace(rate, duration)


def _env(duration=6.0, **kwargs):
    kwargs.setdefault("inner_cc", lambda: PropRate(0.040))
    return CcEnv(_down(), duration=duration, measure_start=1.0, **kwargs)


class TestObservationSchema:
    def test_vector_matches_fields_in_order(self):
        env = _env()
        try:
            obs = env.reset()
            vec = obs.vector()
            assert len(vec) == len(OBS_FIELDS)
            assert vec == [getattr(obs, name) for name in OBS_FIELDS]
            assert list(obs.as_dict()) == list(OBS_FIELDS)
        finally:
            env.close()

    def test_version_pinned(self):
        # Bumping the schema must be a deliberate act: docs/env.md and
        # this pin move together.
        assert OBS_VERSION == 1
        assert Observation.version == OBS_VERSION
        assert Observation.fields == OBS_FIELDS

    def test_proprate_inner_exposes_knobs(self):
        env = _env()
        try:
            obs = env.reset()
            assert obs.target == pytest.approx(0.040)
            assert not math.isnan(obs.threshold)
            assert not math.isnan(obs.pacing_rate)
            assert math.isnan(obs.cwnd)  # rate-based adapter
        finally:
            env.close()

    def test_window_inner_exposes_cwnd(self):
        env = _env(inner_cc=paper_algorithms()["CUBIC"])
        try:
            obs = env.reset()
            assert math.isnan(obs.target)  # no PropRate knobs
            assert not math.isnan(obs.cwnd)
            assert math.isnan(obs.pacing_rate)
        finally:
            env.close()


class TestStepLoop:
    def test_step_advances_one_epoch(self):
        env = _env()
        try:
            obs = env.reset()
            assert obs.t == 0.0
            obs, reward, done, info = env.step(None)
            assert obs.t == pytest.approx(DEFAULT_STEP_INTERVAL)
            assert not done
            assert math.isfinite(reward)
            assert info["step"] == 1
        finally:
            env.close()

    def test_episode_terminates_at_horizon(self):
        env = _env(duration=2.0, step_interval=0.5)
        try:
            env.reset()
            steps = 0
            done = False
            while not done:
                _, _, done, _ = env.step(None)
                steps += 1
            assert steps == 4
            with pytest.raises(RuntimeError, match="reset"):
                env.step(None)
        finally:
            env.close()

    def test_step_before_reset_raises(self):
        env = _env()
        try:
            with pytest.raises(RuntimeError, match="reset"):
                env.step(None)
        finally:
            env.close()

    def test_reset_starts_a_fresh_identical_episode(self):
        env = _env(duration=3.0)
        try:
            first = rollout(env, NativePolicy(), close=False)
            second = rollout(env, NativePolicy(), close=False)
            assert (canonical_summary(first.result.summary())
                    == canonical_summary(second.result.summary()))
        finally:
            env.close()

    def test_closed_env_rejects_reset(self):
        env = _env()
        env.close()
        with pytest.raises(RuntimeError, match="closed"):
            env.reset()


class TestReplayIdentity:
    @pytest.mark.parametrize("name", ["PR(M)", "CUBIC"])
    def test_native_replay_bit_identical(self, name):
        # The determinism contract (enforced at scale by
        # scripts/check_determinism.py --env); pinned here on the
        # loss-heavy mobile trace so plain pytest catches a break.
        down = isp_trace("A", "mobile", duration=10.0)
        factory = paper_algorithms()[name]
        native = run_single_flow(factory, down, duration=5.0,
                                 measure_start=1.0)
        env = CcEnv(down, inner_cc=factory, duration=5.0, measure_start=1.0)
        replay = rollout(env).result
        assert (canonical_summary(replay.summary())
                == canonical_summary(native.summary()))

    def test_step_interval_does_not_change_the_run(self):
        # Incremental stepping composes: the epoch length is a control
        # granularity, not a simulation parameter.
        down = _down()
        results = []
        for interval in (0.1, 0.25, 1.0):
            env = CcEnv(down, inner_cc=lambda: PropRate(0.040),
                        duration=5.0, measure_start=1.0,
                        step_interval=interval)
            results.append(canonical_summary(
                rollout(env).result.summary()))
        assert results[0] == results[1] == results[2]


class TestActions:
    def test_unknown_action_key_rejected(self):
        env = _env()
        try:
            env.reset()
            with pytest.raises(ValueError, match="unknown action"):
                env.step({"warp": 9})
        finally:
            env.close()

    def test_rate_action_drives_externally(self):
        env = CcEnv(_down(), duration=4.0, measure_start=1.0)
        try:
            obs = env.reset()
            assert isinstance(env.adapter, PolicyDriven)
            for _ in range(8):
                obs, _, _, _ = env.step({"rate": 100_000.0})
            assert obs.pacing_rate == pytest.approx(100_000.0)
            assert obs.delivered > 0
        finally:
            env.close()

    def test_cwnd_action_needs_window_adapter(self):
        env = CcEnv(_down(), duration=4.0, measure_start=1.0, window=True)
        try:
            obs = env.reset()
            assert isinstance(env.adapter, WindowPolicyDriven)
            obs, _, _, _ = env.step({"cwnd": 12.0})
            assert obs.cwnd == pytest.approx(12.0)
            with pytest.raises(ValueError, match="rate-based"):
                env.step({"rate": 1e6})
        finally:
            env.close()

    def test_target_action_retunes_proprate(self):
        env = _env()
        try:
            env.reset()
            obs, _, _, _ = env.step({"target": 0.020})
            assert obs.target == pytest.approx(0.020)
            inner = env.adapter.inner
            assert inner.feedback.target == pytest.approx(0.020)
            assert (inner.feedback.min_threshold <= inner.feedback.threshold
                    <= inner.feedback.max_threshold)
            with pytest.raises(ValueError, match="positive"):
                env.step({"target": -1.0})
        finally:
            env.close()

    def test_target_action_needs_proprate_inner(self):
        env = _env(inner_cc=paper_algorithms()["CUBIC"])
        try:
            env.reset()
            with pytest.raises(ValueError, match="PropRate"):
                env.step({"target": 0.020})
        finally:
            env.close()

    def test_threshold_action_clamped_to_band(self):
        env = _env()
        try:
            env.reset()
            env.step({"threshold": 99.0})
            feedback = env.adapter.inner.feedback
            assert feedback.threshold == feedback.max_threshold
        finally:
            env.close()


class TestPolicies:
    def test_constant_rate_policy_delivers(self):
        env = CcEnv(_down(), duration=4.0, measure_start=1.0)
        out = rollout(env, ConstantRatePolicy(150_000.0))
        assert out.result.throughput == pytest.approx(150_000.0, rel=0.2)
        assert out.steps == 16

    def test_adaptive_policy_detunes_on_shallow_buffer(self):
        # The §6 story told through the env face: on a shallow buffer
        # the out-of-path adaptive policy walks the target down and
        # sheds nearly all of fixed PropRate's drops.
        down = _down(duration=16.0)
        fixed = run_single_flow(lambda: PropRate(0.080), down,
                                duration=15.0, measure_start=3.0,
                                buffer_packets=40)
        env = CcEnv(down, inner_cc=lambda: PropRate(0.080),
                    duration=15.0, measure_start=3.0, buffer_packets=40)
        out = rollout(env, AdaptiveTargetPolicy(configured_target=0.080))
        assert out.final_obs.target < 0.080
        assert out.result.bottleneck_drops < 0.2 * max(
            1, fixed.bottleneck_drops)
        assert out.result.throughput > 0.3 * fixed.throughput

    def test_adaptive_policy_requires_proprate_inner(self):
        env = _env(inner_cc=paper_algorithms()["CUBIC"], duration=2.0)
        out = rollout(env, AdaptiveTargetPolicy())
        # No PropRate knobs to steer: the policy no-ops rather than
        # crashing, and the run completes as a plain CUBIC replay.
        assert out.result.throughput > 0

    def test_unreset_adaptive_policy_raises(self):
        policy = AdaptiveTargetPolicy()
        with pytest.raises(RuntimeError, match="reset"):
            policy.action(None)


class TestTelemetryEvents:
    def test_env_step_and_episode_events(self, tmp_path):
        import json

        path = str(tmp_path / "env.jsonl")
        env = CcEnv(_down(), inner_cc=lambda: PropRate(0.040),
                    duration=2.0, measure_start=0.5, step_interval=0.5,
                    telemetry=path)
        rollout(env)
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        steps = [r for r in records if r["kind"] == "env.step"]
        (episode,) = [r for r in records if r["kind"] == "env.episode"]
        assert len(steps) == 4
        assert steps[0]["obs"]["t"] == pytest.approx(0.5)
        assert list(steps[0]["obs"]) == list(OBS_FIELDS)
        assert episode["obs_version"] == OBS_VERSION
        assert episode["steps"] == 4

    def test_env_profile_keyword_times_the_episode(self, tmp_path):
        # CcEnv takes profile= like the other leaf entry points, so the
        # CLI no longer activates a profiler around the rollout itself.
        import repro.obs as obs

        path = str(tmp_path / "env.jsonl")
        env = CcEnv(_down(), inner_cc=lambda: PropRate(0.040),
                    duration=2.0, measure_start=0.5, step_interval=0.5,
                    telemetry=path, profile=True)
        assert obs.current_profiler() is not None
        out = rollout(env)
        assert obs.current_profiler() is None and obs.current_tracer() is None
        assert out.result.metrics["run.timing.prof.ack.scoreboard.calls"] > 0


class TestAdapterUnits:
    def test_policy_adapter_picks_the_matching_face(self):
        assert isinstance(policy_adapter(PropRate(0.040)), PolicyDriven)
        assert isinstance(policy_adapter(paper_algorithms()["CUBIC"]()),
                          WindowPolicyDriven)
        assert isinstance(policy_adapter(None), PolicyDriven)

    def test_rate_override_wins_over_inner(self):
        adapter = policy_adapter(PropRate(0.040))
        adapter.set_rate(42_000.0)
        assert adapter.pacing_rate == pytest.approx(42_000.0)
        adapter.set_rate(None)  # back to the inner's decision


class TestCliEnvRollout:
    def test_env_rollout_native(self, capsys):
        from repro.__main__ import main

        main(["env", "rollout", "--duration", "4", "--warmup", "1",
              "--step-interval", "0.5"])
        out = capsys.readouterr().out
        assert "steps" in out and "reward" in out

    def test_env_rollout_adaptive_policy(self, capsys):
        from repro.__main__ import main

        main(["env", "rollout", "--duration", "4", "--warmup", "1",
              "--policy", "adaptive"])
        out = capsys.readouterr().out
        assert "steps" in out

    def test_env_rollout_bad_policy_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["env", "rollout", "--policy", "nope"])
