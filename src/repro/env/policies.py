"""Policies: observation → action callables for :class:`~repro.env.CcEnv`.

A policy is deliberately tiny — two methods, no base-class state — so
hand-written controllers, replayed native algorithms, and (eventually)
learned models share one face:

* :class:`NativePolicy` — no actions at all: the wrapped native
  algorithm keeps driving through the adapter, making the rollout a
  bit-identical replay of the native run (the ``--env`` determinism
  gate).
* :class:`ConstantRatePolicy` — pins a fixed pacing rate (the simplest
  externally driven sender).
* :class:`AdaptiveTargetPolicy` — the env binding of the §6
  adaptive-target rule (:class:`repro.core.adaptive.TargetAdjuster`;
  DESIGN.md §13): it watches the observation's cumulative
  loss-episode / RTO counters and emits ``{"target": …}`` actions,
  steering a plain PropRate inner from outside the ACK path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.adaptive import TargetAdjuster
from repro.env.core import CcEnv, Observation

__all__ = [
    "Policy",
    "NativePolicy",
    "ConstantRatePolicy",
    "AdaptiveTargetPolicy",
]


class Policy:
    """Interface: called once per epoch with the latest observation."""

    def reset(self, env: CcEnv, obs: Observation) -> None:
        """A new episode began (``obs`` is the initial observation)."""

    def action(self, obs: Observation) -> Optional[Dict[str, Any]]:
        """The action to apply before the next epoch (None = no-op)."""
        return None


class NativePolicy(Policy):
    """Replay: let the adapter's inner native algorithm drive."""


class ConstantRatePolicy(Policy):
    """Pin the pacing rate to a constant (bytes/s)."""

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self.rate = rate

    def action(self, obs: Observation) -> Optional[Dict[str, Any]]:
        return {"rate": self.rate}


class AdaptiveTargetPolicy(Policy):
    """Adaptive-target PropRate as an out-of-path policy.

    The :class:`~repro.core.adaptive.TargetAdjuster` rule for one flow,
    driven from observation deltas instead of per-ACK hooks: each new
    loss episode is an ``on_loss`` and each new RTO an ``on_rto`` at
    ``obs.t``, and an epoch with neither is an ``on_quiet``.  Events
    land at epoch resolution, so shrink decisions can lag a native
    in-path run by up to one ``step_interval`` — equivalent in steady
    state, not bit-identical.  Requires an env whose adapter wraps a
    PropRate inner.
    """

    def __init__(self, configured_target: float = 0.040,
                 min_target: float = 0.005) -> None:
        # Validate eagerly (same rule as AdaptivePropRate).
        TargetAdjuster(configured_target, min_target)
        self.configured_target = configured_target
        self.min_target = min_target
        self._rule: Optional[TargetAdjuster] = None
        self._seen_episodes = 0.0
        self._seen_rtos = 0.0

    def reset(self, env: CcEnv, obs: Observation) -> None:
        self._rule = TargetAdjuster(self.configured_target, self.min_target)
        self._seen_episodes = obs.loss_episodes
        self._seen_rtos = obs.rtos

    def action(self, obs: Observation) -> Optional[Dict[str, Any]]:
        rule = self._rule
        if rule is None:
            raise RuntimeError("policy not reset")
        if obs.target != obs.target:  # NaN: no PropRate inner to steer
            return None
        episodes = int(obs.loss_episodes - self._seen_episodes)
        rtos = int(obs.rtos - self._seen_rtos)
        self._seen_episodes = obs.loss_episodes
        self._seen_rtos = obs.rtos
        # Out of path, the observation is the sender's target.
        rule.target = obs.target
        for _ in range(episodes):
            rule.on_loss(obs.t)
        for _ in range(rtos):
            rule.on_rto(obs.t)
        if not (episodes or rtos):
            rule.on_quiet(obs.t)
        new = rule.target
        if abs(new - obs.target) < 1e-9:
            return None
        return {"target": new}
