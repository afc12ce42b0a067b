"""Adaptive target-delay PropRate (the paper's §6 work-in-progress).

The discussion section notes a PropRate shortcoming under *shallow*
buffers: if the configured target buffer delay exceeds what the buffer
can hold, the flow behaves like BBR — persistent overflow losses — and
proposes "dynamic adjustment of the target buffer delay and reacting to
consecutive packet losses" as future work.  This module implements that
extension:

* every loss (fast-retransmit) episode within a short memory window
  counts as evidence the operating point overflows the buffer; after
  ``LOSS_EPISODES_TO_SHRINK`` consecutive episodes the *effective*
  target is cut multiplicatively (floored at ``min_target``);
* after a sustained loss-free period the effective target recovers
  additively toward the configured target.

The result keeps the configured latency budget as a ceiling while
automatically de-tuning aggressiveness to the actual buffer depth — the
tunability-vs-BBR argument of §6 made automatic.

The rule is written once, in :class:`TargetAdjuster`, as arrays over
*n* flows (DESIGN.md §13, "One rule, three bindings").  Three bindings
turn their own events into its calls and apply its answer:

* per ACK, in-path: :class:`AdaptivePropRate` (n = 1, the shootout
  algorithm ``PR(A)`` / ``adaptive-proprate``), through :func:`retarget`;
* per feedback epoch, out-of-path:
  :class:`repro.env.policies.AdaptiveTargetPolicy` (n = 1), as
  ``{"target": …}`` actions;
* per fluid step: :class:`repro.fluid.controllers.AdaptivePropRateBank`
  (n flows), by re-deriving each moved flow's fill/drain parameters.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.core.proprate import PropRate
from repro.tcp.congestion.base import AckSample

#: Consecutive loss episodes (within MEMORY of each other) that trigger
#: a target cut.
LOSS_EPISODES_TO_SHRINK = 2

#: Two loss episodes further apart than this are unrelated.
EPISODE_MEMORY = 2.0

#: Multiplicative target decrease per trigger.
SHRINK_FACTOR = 0.7

#: Loss-free time before the target starts recovering.
RECOVERY_QUIET_TIME = 5.0

#: Additive recovery per quiet interval (seconds of target delay).
RECOVERY_STEP = 0.005

#: How much earlier than the exact quiet condition :meth:`TargetAdjuster
#: .quiet_due` reports a flow due, so float rounding of ``last + quiet``
#: can only make a binding enter the rule early, never skip a step.
QUIET_DUE_SLACK = 1e-6


class TargetAdjuster:
    """The §6 target-adjustment rule over *n* flows.

    ``target`` holds each flow's effective target; ``configured_target``
    is its ceiling and ``min_target`` its floor.  ``on_loss``,
    ``on_rto`` and ``on_quiet`` each take a time and a boolean flow mask
    and return the mask of flows whose target moved; the new values are
    in ``target``.  A move smaller than 1 ns is no move, the dead-band
    :func:`retarget` applies on the packet tier.
    """

    def __init__(self, configured_target: ArrayLike,
                 min_target: ArrayLike) -> None:
        configured = np.array(configured_target, dtype=np.float64, ndmin=1)
        floor = np.broadcast_to(
            np.asarray(min_target, dtype=np.float64), configured.shape
        ).copy()
        if bool((floor <= 0).any()) or bool((floor > configured).any()):
            raise ValueError("min_target must be in (0, target]")
        n = configured.size
        self.configured_target = configured
        self.min_target = floor
        self.target = configured.copy()
        #: Episodes in the current streak.
        self.streak = np.zeros(n, dtype=np.int64)
        self.last_episode = np.full(n, -np.inf)
        #: The quiet clock: recovery waits this long after the last loss.
        self.last_loss = np.zeros(n)
        self.last_recovery = np.full(n, -np.inf)

    def _move(self, mask: np.ndarray, proposed: np.ndarray) -> np.ndarray:
        clamped = np.minimum(self.configured_target,
                             np.maximum(self.min_target, proposed))
        moved = mask & (np.abs(clamped - self.target) >= 1e-9)
        self.target = np.where(moved, clamped, self.target)
        return moved

    def on_loss(self, now: float, mask: np.ndarray) -> np.ndarray:
        """A loss episode at ``now`` for the ``mask`` flows; an episode
        within ``EPISODE_MEMORY`` of the previous one (inclusive)
        extends the streak, and a full streak shrinks the target."""
        self.last_loss = np.where(mask, now, self.last_loss)
        linked = now - self.last_episode <= EPISODE_MEMORY
        self.streak = np.where(
            mask, np.where(linked, self.streak + 1, 1), self.streak
        )
        self.last_episode = np.where(mask, now, self.last_episode)
        shrink = mask & (self.streak >= LOSS_EPISODES_TO_SHRINK)
        self.streak = np.where(shrink, 0, self.streak)
        return self._move(shrink, self.target * SHRINK_FACTOR)

    def on_rto(self, now: float, mask: np.ndarray) -> np.ndarray:
        """A timeout, the strongest overflow signal of all: shrink now
        and restart the quiet clock."""
        self.last_loss = np.where(mask, now, self.last_loss)
        return self._move(mask, self.target * SHRINK_FACTOR)

    def on_quiet(self, now: float, mask: np.ndarray) -> np.ndarray:
        """Loss-free progress at ``now``: one additive step per
        ``RECOVERY_QUIET_TIME``, up to the configured target."""
        quiet = (
            mask
            & (now - self.last_loss >= RECOVERY_QUIET_TIME)
            & (now - self.last_recovery >= RECOVERY_QUIET_TIME)
            & (self.target < self.configured_target)
        )
        self.last_recovery = np.where(quiet, now, self.last_recovery)
        return self._move(quiet, self.target + RECOVERY_STEP)

    def quiet_due(self) -> np.ndarray:
        """Per flow, a time before which :meth:`on_quiet` cannot move the
        target (``inf`` at the ceiling).  Unchanged until the next rule
        call, so a binding that sees quiet time on every ACK enters the
        rule only from then on."""
        due = (np.maximum(self.last_loss, self.last_recovery)
               + (RECOVERY_QUIET_TIME - QUIET_DUE_SLACK))
        return np.where(self.target < self.configured_target, due, np.inf)


def retarget(cc: PropRate, new_target: float) -> bool:
    """Point a live PropRate instance at a new target buffer delay.

    Sets ``target_buffer_delay`` and re-centres the threshold feedback
    loop's band on the new target (same construction as PropRate's
    ``__init__``), clamping the current threshold into the band.
    Returns False when the change is below the 1 ns dead-band (nothing
    mutated).  Shared by :class:`AdaptivePropRate` and the env action
    path (``{"target": …}``).
    """
    if abs(new_target - cc.target_buffer_delay) < 1e-9:
        return False
    cc.target_buffer_delay = new_target
    feedback = cc.feedback
    feedback.target = new_target
    feedback.min_threshold = max(0.005, new_target / 2.0)
    feedback.max_threshold = min(1.0, new_target * 1.5)
    feedback.threshold = min(
        max(feedback.threshold, feedback.min_threshold),
        feedback.max_threshold,
    )
    return True


#: The one flow of a single-flow binding.
_ONE = np.ones(1, dtype=bool)


class AdaptivePropRate(PropRate):
    """PropRate with loss-driven dynamic adjustment of t̄_buff.

    Parameters are those of :class:`~repro.core.proprate.PropRate` plus
    ``min_target``, the floor the adaptive logic may shrink to.  The
    target moves only through the rule: a fast-retransmit episode is
    ``on_loss``, a timeout ``on_rto``, and an ACK is ``on_quiet`` once
    the rule's :meth:`~TargetAdjuster.quiet_due` time has come.
    """

    name = "PropRate-A"

    def __init__(
        self,
        target_buffer_delay: float = 0.040,
        min_target: float = 0.005,
        **kwargs: Any,
    ) -> None:
        super().__init__(target_buffer_delay=target_buffer_delay, **kwargs)
        self._rule = TargetAdjuster(target_buffer_delay, min_target)
        self._quiet_due = float(self._rule.quiet_due()[0])
        self.configured_target = target_buffer_delay
        self.min_target = min_target
        self.target_adjustments = 0

    # ------------------------------------------------------------------
    def _apply(self, moved: np.ndarray) -> None:
        rule = self._rule
        if moved[0] and retarget(self, float(rule.target[0])):
            self.target_adjustments += 1
        self._quiet_due = float(rule.quiet_due()[0])

    def on_congestion(self, sample: AckSample) -> None:
        super().on_congestion(sample)
        self._apply(self._rule.on_loss(sample.now, _ONE))

    def on_rto(self) -> None:
        super().on_rto()
        self._apply(self._rule.on_rto(self.host.now, _ONE))

    def on_ack(self, sample: AckSample) -> None:
        super().on_ack(sample)
        if sample.now >= self._quiet_due:
            self._apply(self._rule.on_quiet(sample.now, _ONE))
