"""Tests for the adaptive-target extension (paper §6 future work).

The rule is written once, in :class:`TargetAdjuster`, and driven by
three bindings (DESIGN.md §13).  The edge cases run against the rule
and, as one matrix, against every binding; a hypothesis differential
holds the vectorised rule to frozen scalar references; two AST guards
keep the rule and the fluid loss hold-off from being written twice.
"""

import ast
import dataclasses
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.adaptive import (
    AdaptivePropRate,
    EPISODE_MEMORY,
    LOSS_EPISODES_TO_SHRINK,
    RECOVERY_QUIET_TIME,
    RECOVERY_STEP,
    SHRINK_FACTOR,
    TargetAdjuster,
    retarget,
)
from repro.core.proprate import PropRate
from repro.env.policies import AdaptiveTargetPolicy
from repro.experiments.runner import FlowSpec, cellular_path_config, run_experiment
from repro.fluid.controllers import AdaptivePropRateBank
from repro.traces.generator import constant_rate_trace

from tests.helpers import AckFeeder, FakeHost
from tests.reference.adaptive import ScalarTargetAdjuster, apply


def _adaptive(target=0.080, **kwargs):
    cc = AdaptivePropRate(target_buffer_delay=target, **kwargs)
    feeder = AckFeeder(cc, FakeHost(srtt=0.05, min_rtt=0.04))
    feeder.run(30, dt=0.004)  # establish rate estimate / params
    return cc, feeder


class TestTargetShrinking:
    def test_single_loss_episode_does_not_shrink(self):
        cc, feeder = _adaptive()
        sample = feeder.ack(newly_lost=1)
        cc.on_congestion(sample)
        assert cc.target_buffer_delay == pytest.approx(0.080)

    def test_consecutive_episodes_shrink_target(self):
        cc, feeder = _adaptive()
        for _ in range(LOSS_EPISODES_TO_SHRINK):
            sample = feeder.ack(dt=0.1, newly_lost=1)
            cc.on_congestion(sample)
        assert cc.target_buffer_delay == pytest.approx(0.080 * SHRINK_FACTOR)
        assert cc.target_adjustments == 1

    def test_distant_episodes_do_not_accumulate(self):
        cc, feeder = _adaptive()
        sample = feeder.ack(newly_lost=1)
        cc.on_congestion(sample)
        feeder.run(100, dt=0.05)  # > EPISODE_MEMORY apart
        sample = feeder.ack(newly_lost=1)
        cc.on_congestion(sample)
        assert cc.target_buffer_delay == pytest.approx(0.080)

    def test_rto_shrinks_immediately(self):
        cc, feeder = _adaptive()
        cc.on_rto()
        assert cc.target_buffer_delay == pytest.approx(0.080 * SHRINK_FACTOR)

    def test_floor_respected(self):
        cc, feeder = _adaptive(min_target=0.020)
        for _ in range(50):
            cc.on_rto()
        assert cc.target_buffer_delay >= 0.020

    def test_feedback_loop_recentred(self):
        cc, feeder = _adaptive()
        cc.on_rto()
        assert cc.feedback.target == cc.target_buffer_delay
        assert cc.feedback.min_threshold <= cc.feedback.threshold <= cc.feedback.max_threshold


class TestTargetRecovery:
    def test_recovers_toward_configured_after_quiet_period(self):
        cc, feeder = _adaptive()
        cc.on_rto()
        shrunk = cc.target_buffer_delay
        # A long loss-free stretch (> RECOVERY_QUIET_TIME) of ACKs.
        feeder.run(300, dt=0.05)
        assert cc.target_buffer_delay > shrunk

    def test_never_exceeds_configured_target(self):
        cc, feeder = _adaptive()
        feeder.run(500, dt=0.05)
        assert cc.target_buffer_delay <= cc.configured_target + 1e-12


ONE = np.ones(1, dtype=bool)


class TestTargetAdjusterEdges:
    """Boundary semantics of the rule itself, over arrays of flows;
    :class:`TestBindingMatrix` holds every binding to the same edges."""

    def test_episodes_exactly_memory_apart_are_consecutive(self):
        # The memory boundary is inclusive: a second episode exactly
        # EPISODE_MEMORY after the first still extends the streak.
        rule = TargetAdjuster(0.080, 0.005)
        assert not rule.on_loss(1.0, ONE).any()
        assert rule.on_loss(1.0 + EPISODE_MEMORY, ONE).all()
        assert rule.target[0] == pytest.approx(0.080 * SHRINK_FACTOR)

    def test_episodes_just_past_memory_restart_streak(self):
        rule = TargetAdjuster(0.080, 0.005)
        rule.on_loss(1.0, ONE)
        assert not rule.on_loss(1.0 + EPISODE_MEMORY + 1e-9, ONE).any()

    def test_shrink_resets_streak(self):
        rule = TargetAdjuster(0.080, 0.005)
        rule.on_loss(1.0, ONE)
        assert rule.on_loss(2.0, ONE).all()
        # The trigger consumed the streak: the next episode starts a new
        # count of one, not an immediate second shrink.
        assert not rule.on_loss(3.0, ONE).any()

    def test_recovery_ceiling_is_configured_target(self):
        rule = TargetAdjuster(0.080, 0.005)
        rule.on_loss(1.0, ONE)
        rule.on_loss(2.0, ONE)
        now = 2.0
        for _ in range(50):
            now += RECOVERY_QUIET_TIME
            rule.on_quiet(now, ONE)
        assert rule.target[0] == pytest.approx(0.080)
        # At the ceiling, quiet time moves nothing and is never due.
        assert not rule.on_quiet(now + RECOVERY_QUIET_TIME, ONE).any()
        assert rule.quiet_due()[0] == np.inf

    def test_recovery_rate_limited_per_quiet_interval(self):
        rule = TargetAdjuster(0.080, 0.005)
        rule.on_loss(1.0, ONE)
        rule.on_loss(2.0, ONE)
        shrunk = rule.target[0]
        now = 2.0 + RECOVERY_QUIET_TIME
        assert rule.on_quiet(now, ONE).all()
        assert rule.target[0] == pytest.approx(shrunk + RECOVERY_STEP)
        # A beat later (same quiet interval) → no second step.
        assert not rule.on_quiet(now + 0.1, ONE).any()

    def test_min_target_floor_on_loss_and_rto(self):
        rule = TargetAdjuster(0.080, 0.050)
        for k in range(10):
            rule.on_loss(1.0 + k, ONE)
        assert rule.target[0] == pytest.approx(0.050)
        assert not rule.on_rto(11.0, ONE).any()
        assert rule.target[0] == pytest.approx(0.050)

    def test_ctor_validation(self):
        with pytest.raises(ValueError, match="min_target"):
            TargetAdjuster(0.040, 0.0)
        with pytest.raises(ValueError, match="min_target"):
            TargetAdjuster(0.040, 0.080)
        with pytest.raises(ValueError, match="min_target"):
            TargetAdjuster([0.040, 0.080], [0.005, 0.100])

    def test_masked_out_flows_keep_their_state(self):
        rule = TargetAdjuster([0.080, 0.080, 0.040], 0.005)
        hit = np.array([False, True, False])
        rule.on_loss(1.0, hit)
        moved = rule.on_loss(2.0, hit)
        assert moved.tolist() == [False, True, False]
        assert rule.target.tolist() == pytest.approx(
            [0.080, 0.080 * SHRINK_FACTOR, 0.040])
        # Flow 0 never saw an episode: its first one starts a streak.
        assert not rule.on_loss(2.5, ~hit).any()

    def test_quiet_due_is_never_late(self):
        # A binding that enters on_quiet only from quiet_due() on must
        # not miss a step the rule would take.
        rule = TargetAdjuster(0.080, 0.005)
        rule.on_loss(1.1, ONE)
        rule.on_loss(2.3, ONE)
        due = rule.quiet_due()[0]
        assert due <= 2.3 + RECOVERY_QUIET_TIME
        assert not rule.on_quiet(np.nextafter(due, -np.inf), ONE).any()
        assert rule.on_quiet(2.3 + RECOVERY_QUIET_TIME, ONE).all()


class _PacketBinding:
    """PR(A): a loss is ``on_congestion``, a timeout ``on_rto``, quiet
    time an ACK."""

    def __init__(self, configured, floor):
        self.cc = AdaptivePropRate(configured, min_target=floor)
        self.feeder = AckFeeder(self.cc, FakeHost(srtt=0.05, min_rtt=0.04))
        self.sample = self.feeder.ack(dt=0.0)

    @property
    def target(self):
        return self.cc.target_buffer_delay

    def loss(self, t):
        self.feeder.host.now = t
        self.cc.on_congestion(dataclasses.replace(self.sample, now=t))

    def rto(self, t):
        self.feeder.host.now = t
        self.cc.on_rto()

    def quiet(self, t):
        self.feeder.ack(dt=t - self.feeder.host.now)


class _PolicyBinding:
    """AdaptiveTargetPolicy: an epoch with a new loss episode, a new
    RTO, or neither; its ``{"target": …}`` actions are applied."""

    def __init__(self, configured, floor):
        self.policy = AdaptiveTargetPolicy(configured, floor)
        self.target = configured
        self.episodes = self.rtos = 0
        self.policy.reset(None, self._obs(0.0))

    def _obs(self, t):
        return SimpleNamespace(t=t, target=self.target,
                               loss_episodes=float(self.episodes),
                               rtos=float(self.rtos))

    def _epoch(self, t):
        action = self.policy.action(self._obs(t))
        if action is not None:
            self.target = action["target"]

    def loss(self, t):
        self.episodes += 1
        self._epoch(t)

    def rto(self, t):
        self.rtos += 1
        self._epoch(t)

    quiet = _epoch


class _FluidBinding:
    """AdaptivePropRateBank: a tower overflow past the per-RTT hold-off
    is a loss, a step is quiet time; the fluid tier has no timeouts."""

    rto = None

    def __init__(self, configured, floor):
        self.bank = AdaptivePropRateBank([0], [0.010], [0.0], 0.005,
                                         [configured], [floor])

    @property
    def target(self):
        return float(self.bank.target[0])

    def loss(self, t):
        assert self.bank.on_overflow(t, ONE) == 1

    def quiet(self, t):
        zero = np.zeros(1)
        self.bank.rates(t, zero, zero, zero, ONE)


BINDINGS = {"packet": _PacketBinding, "policy": _PolicyBinding,
            "fluid": _FluidBinding}


@pytest.fixture(params=sorted(BINDINGS))
def binding(request):
    return BINDINGS[request.param]


class TestBindingMatrix:
    """The rule's edges, seen through each of its three bindings."""

    def test_inclusive_memory_boundary(self, binding):
        linked = binding(0.080, 0.005)
        linked.loss(1.0)
        linked.loss(1.0 + EPISODE_MEMORY)
        assert linked.target == pytest.approx(0.080 * SHRINK_FACTOR)
        apart = binding(0.080, 0.005)
        apart.loss(1.0)
        apart.loss(1.0 + EPISODE_MEMORY + 1e-9)
        assert apart.target == pytest.approx(0.080)

    def test_shrink_resets_streak(self, binding):
        b = binding(0.080, 0.005)
        for t in (1.0, 2.0, 3.0):
            b.loss(t)
        assert b.target == pytest.approx(0.080 * SHRINK_FACTOR)

    def test_recovery_ceiling(self, binding):
        b = binding(0.080, 0.005)
        b.loss(1.0)
        b.loss(2.0)
        for k in range(1, 40):
            b.quiet(2.0 + k * RECOVERY_QUIET_TIME)
            assert b.target <= 0.080 + 1e-12
        assert b.target == pytest.approx(0.080)

    def test_one_recovery_step_per_quiet_interval(self, binding):
        b = binding(0.080, 0.005)
        b.loss(1.0)
        b.loss(2.0)
        shrunk = b.target
        b.quiet(2.0 + RECOVERY_QUIET_TIME - 0.1)
        assert b.target == shrunk
        b.quiet(2.0 + RECOVERY_QUIET_TIME)
        assert b.target == pytest.approx(shrunk + RECOVERY_STEP)
        b.quiet(2.0 + RECOVERY_QUIET_TIME + 0.1)
        assert b.target == pytest.approx(shrunk + RECOVERY_STEP)

    def test_min_target_floor(self, binding):
        b = binding(0.080, 0.050)
        for k in range(10):
            b.loss(1.0 + k)
        assert b.target == pytest.approx(0.050)
        if b.rto is not None:
            b.rto(11.0)
            assert b.target == pytest.approx(0.050)

    @pytest.mark.parametrize("name", ["packet", "policy"])
    def test_timeout_restarts_quiet_clock(self, name):
        # An RTO is a loss: quiet time counts from it, not from the last
        # fast-retransmit episode (the fluid tier has no timeouts).
        b = BINDINGS[name](0.080, 0.005)
        b.loss(1.0)
        b.loss(2.0)
        stall_end = 2.0 + RECOVERY_QUIET_TIME + 1.0
        b.rto(stall_end)
        after_rto = b.target
        b.quiet(stall_end + 0.1)
        assert b.target == after_rto
        b.quiet(stall_end + RECOVERY_QUIET_TIME)
        assert b.target == pytest.approx(after_rto + RECOVERY_STEP)

    def test_constructor_validation(self, binding):
        with pytest.raises(ValueError, match="min_target"):
            binding(0.040, 0.0)
        with pytest.raises(ValueError, match="min_target"):
            binding(0.040, 0.080)


_GAPS = st.one_of(
    st.sampled_from([0.0, 0.5, EPISODE_MEMORY, RECOVERY_QUIET_TIME]),
    st.floats(min_value=0.0, max_value=7.0),
)


@given(data=st.data(), n=st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_vectorised_rule_matches_scalar_references(data, n):
    """Random loss / timeout / quiet schedules for *n* flows, through the
    rule and through *n* frozen scalar rules: every target equal after
    every event."""
    configured = data.draw(st.lists(
        st.sampled_from([0.020, 0.040, 0.080, 0.150]), min_size=n, max_size=n))
    floors = [c * data.draw(st.sampled_from([0.1, 0.5, 1.0]))
              for c in configured]
    rule = TargetAdjuster(configured, floors)
    refs = [ScalarTargetAdjuster(c, f) for c, f in zip(configured, floors)]
    targets = list(configured)
    now = 0.0
    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        kind = data.draw(st.sampled_from(["loss", "rto", "quiet"]))
        now += data.draw(_GAPS)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)))
        before = list(targets)
        for i in np.nonzero(mask)[0]:
            ref, target = refs[i], targets[i]
            if kind == "loss":
                targets[i] = apply(target, ref.on_loss(now, target))
            elif kind == "rto":
                targets[i] = apply(target, ref.on_rto(target))
                # The one change since the reference: a timeout
                # restarts the quiet clock, as a loss episode does.
                ref._last_loss_at = now
            else:
                targets[i] = apply(target, ref.on_quiet(now, target))
        moved = getattr(rule, "on_" + kind)(now, mask)
        assert rule.target.tolist() == targets
        assert moved.tolist() == [a != b for a, b in zip(targets, before)]


SECTION_6 = {"LOSS_EPISODES_TO_SHRINK", "EPISODE_MEMORY", "SHRINK_FACTOR",
             "RECOVERY_QUIET_TIME", "RECOVERY_STEP"}
#: Episode bookkeeping: the rule's state, under its own and former names.
BOOKKEEPING = {"streak", "consecutive", "last_episode", "last_episode_at",
               "last_recovery", "last_recovery_at", "last_loss_at"}


def _sources(under):
    root = pathlib.Path(repro.__file__).parent
    for path in sorted((root / under).rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(
            path.read_text(encoding="utf-8"))


def test_section_6_rule_lives_only_in_the_rule():
    """No module but core/adaptive.py reads a §6 constant or stores
    episode bookkeeping."""
    offenders = []
    for name, tree in _sources("."):
        if name == "core/adaptive.py":
            continue
        for node in ast.walk(tree):
            used = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else None)
            stored = (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and node.attr in BOOKKEEPING)
            if used in SECTION_6 or stored:
                offenders.append(f"{name}:{node.lineno}:{used}")
    assert offenders == []


def test_fluid_loss_hold_off_is_written_once():
    holdoffs = [
        f"{name}:{node.lineno}"
        for name, tree in _sources("fluid")
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and "last_loss" in ast.unparse(node)
    ]
    assert len(holdoffs) == 1, holdoffs


class TestRetarget:
    def test_dead_band_is_a_noop(self):
        cc = PropRate(0.040)
        threshold = cc.feedback.threshold
        assert retarget(cc, 0.040 + 1e-12) is False
        assert cc.target_buffer_delay == 0.040
        assert cc.feedback.threshold == threshold

    def test_recentres_feedback_band(self):
        cc = PropRate(0.040)
        assert retarget(cc, 0.100) is True
        assert cc.target_buffer_delay == pytest.approx(0.100)
        assert cc.feedback.target == pytest.approx(0.100)
        assert cc.feedback.min_threshold == pytest.approx(0.050)
        assert cc.feedback.max_threshold == pytest.approx(0.150)
        assert (cc.feedback.min_threshold <= cc.feedback.threshold
                <= cc.feedback.max_threshold)


class TestValidation:
    def test_rejects_bad_min_target(self):
        with pytest.raises(ValueError):
            AdaptivePropRate(0.040, min_target=0.0)
        with pytest.raises(ValueError):
            AdaptivePropRate(0.040, min_target=0.080)

    def test_metadata(self):
        cc = AdaptivePropRate()
        assert cc.is_rate_based
        assert cc.name == "PropRate-A"


class TestShallowBufferBehaviour:
    """The §6 motivation: on a shallow buffer the adaptive variant sheds
    its losses by de-tuning, where fixed PR(80 ms) keeps overflowing."""

    def test_adaptive_loses_less_than_fixed(self):
        trace = constant_rate_trace(1.5e6, 25.0)
        config = cellular_path_config(trace, buffer_packets=40)

        fixed = run_experiment(
            config, [FlowSpec(cc_factory=lambda: PropRate(0.080))],
            duration=15.0, measure_start=3.0,
        )[0]
        adaptive = run_experiment(
            config, [FlowSpec(cc_factory=lambda: AdaptivePropRate(0.080))],
            duration=15.0, measure_start=3.0,
        )[0]

        assert adaptive.bottleneck_drops < 0.2 * max(1, fixed.bottleneck_drops)
        assert adaptive.sender.cc.target_buffer_delay < 0.080
        # It still moves data (at a lower rate: a de-tuned target on a
        # shallow buffer trades throughput for the ~20x loss reduction).
        assert adaptive.throughput > 0.3 * fixed.throughput
        assert adaptive.delay.mean < fixed.delay.mean
