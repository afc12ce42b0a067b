"""The §6 adaptive-target rule as it was first written.

:class:`ScalarTargetAdjuster` is ``repro.core.adaptive.TargetAdjuster``
as it stood before the rule was rewritten around explicit state
(``streak``, ``last_loss``, ``quiet_due``): feed it one flow's loss /
timeout / quiet events and its current target, and it answers with the
target to apply or ``None``.  The constants are copied rather than
imported so the reference cannot drift with the shipped rule.
tests/test_adaptive.py runs random schedules through it and through the
shipped rule and compares the targets after every event.
"""

from __future__ import annotations

from typing import Optional

LOSS_EPISODES_TO_SHRINK = 2
EPISODE_MEMORY = 2.0
SHRINK_FACTOR = 0.7
RECOVERY_QUIET_TIME = 5.0
RECOVERY_STEP = 0.005


class ScalarTargetAdjuster:
    """One flow's §6 rule: event in, proposed target (or ``None``) out."""

    def __init__(self, configured_target: float, min_target: float) -> None:
        if not 0 < min_target <= configured_target:
            raise ValueError("min_target must be in (0, target]")
        self.configured_target = configured_target
        self.min_target = min_target
        self._consecutive_episodes = 0
        self._last_episode_at: Optional[float] = None
        self._last_loss_at: Optional[float] = None
        self._last_recovery_at: Optional[float] = None

    def clamp(self, target: float) -> float:
        return min(self.configured_target, max(self.min_target, target))

    def on_loss(self, now: float, target: float) -> Optional[float]:
        self._last_loss_at = now
        if (
            self._last_episode_at is not None
            and now - self._last_episode_at <= EPISODE_MEMORY
        ):
            self._consecutive_episodes += 1
        else:
            self._consecutive_episodes = 1
        self._last_episode_at = now
        if self._consecutive_episodes >= LOSS_EPISODES_TO_SHRINK:
            self._consecutive_episodes = 0
            return self.clamp(target * SHRINK_FACTOR)
        return None

    def on_rto(self, target: float) -> float:
        return self.clamp(target * SHRINK_FACTOR)

    def on_quiet(self, now: float, target: float) -> Optional[float]:
        quiet_since = self._last_loss_at if self._last_loss_at is not None else 0.0
        if now - quiet_since < RECOVERY_QUIET_TIME:
            return None
        if target >= self.configured_target:
            return None
        if (
            self._last_recovery_at is None
            or now - self._last_recovery_at >= RECOVERY_QUIET_TIME
        ):
            self._last_recovery_at = now
            return self.clamp(target + RECOVERY_STEP)
        return None


def apply(target: float, proposed: Optional[float]) -> float:
    """The packet tier's ``retarget`` dead-band: a proposal within 1 ns
    of the current target leaves it unchanged."""
    if proposed is None or abs(proposed - target) < 1e-9:
        return target
    return proposed
