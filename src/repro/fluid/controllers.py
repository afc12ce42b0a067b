"""Vectorized fluid controller banks for the flow-level tier.

The packet tier steps one event at a time; the fluid tier steps *time*
and needs every flow's control decision as an array operation.  Each
bank holds the state of all flows of one controller family as numpy
arrays and answers two questions per step:

* :meth:`rates` — the send rate (bytes/s) each flow demands right now,
  given its *lagged* observation of the bottleneck buffer delay;
* :meth:`on_overflow` — which flows register a loss epoch when their
  tower's buffer overflows (loss-based controllers only).

Two families are modelled:

* :class:`PropRateBank` — the paper's two-state fill/drain oscillator
  (§3) with the feedback lag applied by the engine: fill at k_f·ρ̂,
  drain at k_d·ρ̂, switching when the observed buffer delay crosses the
  threshold T from :func:`repro.core.model.derive_parameters`.  The ρ̂
  estimate is an RTT-time-constant EWMA of the flow's delivered rate,
  held with the packet implementation's slow decay while deliberately
  under-sending (``RHO_HOLD_TAU``), and floored at one segment per RTT
  so a starved flow keeps a self-clock (the fluid stand-in for the
  Monitor state's probe).
* :class:`CubicBank` — CUBIC's real-time window curve (RFC 8312):
  continuous slow-start doubling until the first loss epoch, then
  w(t) = C·(t − t_epoch − K)³ + W_max, converted to a rate through the
  current RTT + buffer delay (the fluid form of ACK self-clocking).
  A tower buffer overflow is the loss signal; every cubic flow with
  traffic at the tower multiplies down together (fluid models drop-tail
  loss as synchronized — see docs/fluid.md for why that is a known,
  tolerated divergence from the packet tier).

Two control-plane extensions ride on those families:

* :class:`AdaptivePropRateBank` — the fluid binding of the §6
  adaptive-target rule (:class:`repro.core.adaptive.TargetAdjuster`,
  DESIGN.md §13): tower overflows are the rule's loss episodes, every
  step is a quiet-time probe, and the fill/drain parameters are
  re-derived whenever a flow's target moves.
* :class:`PolicyBank` — externally driven rates, the fluid face of the
  :mod:`repro.env` control-plane split: a callable policy receives the
  fleet's observation arrays once per step and returns the per-flow
  send-rate action array.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.adaptive import TargetAdjuster
from repro.core.model import derive_parameters
from repro.core.proprate import RHO_HOLD_TAU
from repro.tcp.congestion.cubic import Cubic

__all__ = [
    "ControllerBank",
    "PropRateBank",
    "AdaptivePropRateBank",
    "CubicBank",
    "PolicyBank",
    "MSS",
]

#: Segment size shared with the packet tier (bytes).
MSS = 1500.0

#: Slow-start / startup probe window, segments (IW=10, as the packet
#: tier's PROBE_BURST).
INITIAL_WINDOW = 10.0

#: Floor on the PropRate rate estimate: one segment per RTT keeps a
#: starved flow's self-clock alive (the Monitor-probe stand-in).
RHO_FLOOR_SEGMENTS = 1.0

#: PropRate fill/drain modes (int8 state array values).
STARTUP, FILL, DRAIN = 0, 1, 2


class ControllerBank:
    """State for all flows of one controller family.

    ``index`` maps the bank's local order to engine flow indices; all
    per-flow arrays below are in local order.  Subclasses fill in the
    family-specific state and the two step hooks.
    """

    #: Report label for flows of this bank.
    kind = "base"
    #: Whether tower buffer overflow is a congestion signal.
    loss_based = False

    def __init__(self, index: Sequence[int], rtts: Sequence[float],
                 starts: Sequence[float], dt: float) -> None:
        self.index = np.asarray(index, dtype=np.intp)
        self.n = int(self.index.size)
        self.rtt = np.asarray(rtts, dtype=np.float64)
        self.start = np.asarray(starts, dtype=np.float64)
        self.dt = float(dt)
        #: Loss epochs registered per flow (report statistic).
        self.loss_epochs = np.zeros(self.n, dtype=np.int64)
        #: When each flow last registered one (the per-RTT hold-off).
        self.last_loss = np.full(self.n, -np.inf)

    def rates(self, t: float, observed: np.ndarray, tbuff_now: np.ndarray,
              delivered: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Send rates (bytes/s, local order) for simulated time ``t``.

        ``observed`` is the feedback-lagged buffer delay each flow sees,
        ``tbuff_now`` the current delay at the flow's tower (for rate
        conversion — self-clocking sees the real queue), ``delivered``
        the flow's delivered rate last step, ``active`` whether the flow
        has started.
        """
        raise NotImplementedError

    def on_overflow(self, t: float, hit: np.ndarray) -> int:
        """Register a loss epoch for flows in ``hit`` (local bool mask).

        One loss epoch per RTT per flow: a multi-step overflow burst is
        one congestion event, as the packet scoreboard treats it.  The
        flows that pass the hold-off get the family's :meth:`_react`.
        Returns how many flows reacted; rate-based families ignore the
        signal entirely.
        """
        if not self.loss_based:
            return 0
        react = hit & (t - self.last_loss > self.rtt)
        if not bool(react.any()):
            return 0
        self.last_loss = np.where(react, t, self.last_loss)
        self.loss_epochs += react
        self._react(t, react)
        return int(react.sum())

    def _react(self, t: float, react: np.ndarray) -> None:
        """The family's response to a loss epoch of the ``react`` flows."""


class PropRateBank(ControllerBank):
    """Fluid PropRate: the §3 two-state oscillator, vectorized."""

    kind = "proprate"
    loss_based = False

    def __init__(self, index: Sequence[int], rtts: Sequence[float],
                 starts: Sequence[float], dt: float,
                 targets: Sequence[float]) -> None:
        super().__init__(index, rtts, starts, dt)
        self.target = np.asarray(targets, dtype=np.float64)
        self.threshold = np.empty(self.n)
        self.kf = np.empty(self.n)
        self.kd = np.empty(self.n)
        self._derive(np.arange(self.n))
        #: Fill/drain oscillator state: every flow is in exactly one of
        #: Startup, Fill, Drain (see :attr:`mode`).
        self._startup = np.ones(self.n, dtype=bool)
        self._any_startup = True
        self._drain = np.zeros(self.n, dtype=bool)
        #: ρ̂ bootstrap: the IW=10 probe burst's implied rate.
        self.rho = INITIAL_WINDOW * MSS / self.rtt
        self._rho_floor = RHO_FLOOR_SEGMENTS * MSS / self.rtt
        #: EWMA gains: RTT time constant while measuring, RHO_HOLD_TAU
        #: while deliberately under-sending in Drain.
        self._alpha_fast = 1.0 - np.exp(-dt / self.rtt)
        self._alpha_hold = 1.0 - float(np.exp(-dt / RHO_HOLD_TAU))
        #: When each flow's first feedback returns (one RTT after start).
        self._feedback_from = self.start + self.rtt

    @property
    def mode(self) -> np.ndarray:
        """Per-flow state as ``STARTUP`` / ``FILL`` / ``DRAIN`` (int8)."""
        return np.where(
            self._startup, STARTUP, np.where(self._drain, DRAIN, FILL)
        ).astype(np.int8)

    def _derive(self, which: np.ndarray) -> None:
        """(Re-)derive threshold/k_f/k_d for the flows at ``which``:
        one :func:`derive_parameters` call per distinct (target, rtt)."""
        pairs, inverse = np.unique(
            np.stack([self.target[which], self.rtt[which]], axis=1),
            axis=0, return_inverse=True,
        )
        derived = np.array([
            (params.threshold, params.kf, params.kd)
            for params in (derive_parameters(float(target), float(rtt))
                           for target, rtt in pairs)
        ])
        self.threshold[which], self.kf[which], self.kd[which] = (
            derived[inverse.reshape(-1)].T
        )

    def rates(self, t: float, observed: np.ndarray, tbuff_now: np.ndarray,
              delivered: np.ndarray, active: np.ndarray) -> np.ndarray:
        # ρ̂ update — only once the first feedback has returned, so the
        # bootstrap survives the initial silent RTT.
        rho = self.rho
        drain = self._drain
        feedback = active & (t >= self._feedback_from)
        holding = drain & (delivered < rho)
        alpha = np.where(holding, self._alpha_hold, self._alpha_fast)
        rho = self.rho = np.where(
            feedback,
            np.maximum(rho + alpha * (delivered - rho), self._rho_floor),
            rho,
        )

        # State transitions on the *observed* (lagged) delay: the
        # overshoot past T on both sides is the paper's sawtooth.
        # Startup/Fill leave for Drain above T, Drain leaves for Fill
        # below it; a flow exactly at T stays where it is.
        threshold = self.threshold
        drain = self._drain = np.where(
            drain, observed >= threshold, observed > threshold
        )

        # Startup paces at 2·ρ̂ (the packet tier's paced slow start);
        # Fill/Drain are the proportional-rate states.
        gain = np.where(drain, self.kd, self.kf)
        if self._any_startup:
            startup = self._startup = self._startup & ~drain
            self._any_startup = bool(startup.any())
            gain = np.where(startup, 2.0, gain)
        return np.where(active, gain * rho, 0.0)


class AdaptivePropRateBank(PropRateBank):
    """Fluid PR(A): PropRate steered by the §6 rule over the fleet.

    A loss epoch (after the per-RTT hold-off) is the rule's
    ``on_loss``, every step its ``on_quiet`` for the active flows, and
    every target move re-derives the flow's threshold/k_f/k_d from
    :func:`repro.core.model.derive_parameters`, as the packet tier's
    ``retarget`` re-centres the feedback band.
    """

    kind = "adaptive-proprate"
    loss_based = True

    def __init__(self, index: Sequence[int], rtts: Sequence[float],
                 starts: Sequence[float], dt: float,
                 targets: Sequence[float],
                 min_targets: Sequence[float]) -> None:
        super().__init__(index, rtts, starts, dt, targets)
        self.rule = TargetAdjuster(self.target, min_targets)
        self.target_adjustments = np.zeros(self.n, dtype=np.int64)

    def _retarget(self, moved: np.ndarray) -> None:
        if bool(moved.any()):
            self.target = self.rule.target
            self._derive(np.nonzero(moved)[0])
            self.target_adjustments += moved

    def rates(self, t: float, observed: np.ndarray, tbuff_now: np.ndarray,
              delivered: np.ndarray, active: np.ndarray) -> np.ndarray:
        self._retarget(self.rule.on_quiet(t, active))
        return super().rates(t, observed, tbuff_now, delivered, active)

    def _react(self, t: float, react: np.ndarray) -> None:
        self._retarget(self.rule.on_loss(t, react))


class CubicBank(ControllerBank):
    """Fluid CUBIC: the real-time window curve driven by loss epochs."""

    kind = "cubic"
    loss_based = True

    #: RFC 8312 constants, shared with the packet implementation.
    C = Cubic.C
    BETA = Cubic.BETA
    MIN_CWND = Cubic.MIN_CWND

    def __init__(self, index: Sequence[int], rtts: Sequence[float],
                 starts: Sequence[float], dt: float) -> None:
        super().__init__(index, rtts, starts, dt)
        self.w = np.full(self.n, INITIAL_WINDOW)
        self.w_max = np.full(self.n, INITIAL_WINDOW)
        self.k = np.zeros(self.n)
        self.epoch = self.start.copy()
        self.slow_start = np.ones(self.n, dtype=bool)
        self._any_slow_start = True
        #: Continuous doubling per RTT.
        self._ss_growth = 2.0 ** (dt / self.rtt)

    def rates(self, t: float, observed: np.ndarray, tbuff_now: np.ndarray,
              delivered: np.ndarray, active: np.ndarray) -> np.ndarray:
        w = self.w
        if self._any_slow_start:
            w = np.where(active & self.slow_start, w * self._ss_growth, w)
        # Cubed by multiplication, not ``** 3``: numpy's vector pow is
        # ~60x slower on mixed-sign input and not bit-reproducible
        # across builds (docs/fluid.md, "Cost of a step").
        d = (t - self.epoch) - self.k
        w_cubic = self.C * (d * d * d) + self.w_max
        w = np.where(active & ~self.slow_start, w_cubic, w)
        w = self.w = np.maximum(w, self.MIN_CWND)
        # Window → rate through the *current* delay: self-clocking slows
        # the send rate as the standing queue grows.
        return np.where(active, w * MSS / (self.rtt + tbuff_now), 0.0)

    def _react(self, t: float, react: np.ndarray) -> None:
        self.w_max = np.where(react, self.w, self.w_max)
        self.k = np.where(
            react,
            np.cbrt(self.w_max * (1.0 - self.BETA) / self.C),
            self.k,
        )
        self.w = np.where(react, np.maximum(self.BETA * self.w,
                                            self.MIN_CWND), self.w)
        self.epoch = np.where(react, t, self.epoch)
        self.slow_start = self.slow_start & ~react
        self._any_slow_start = bool(self.slow_start.any())


class PolicyBank(ControllerBank):
    """Externally driven rates: the fluid face of :mod:`repro.env`.

    ``policy`` is called once per engine step with the simulated time
    and the fleet's observation arrays (local order) and returns the
    per-flow send-rate action array (bytes/s) — one vectorized
    step/observe/act round for the whole bank, mirroring
    :meth:`repro.env.CcEnv.step` at fleet scale.  The observation dict
    carries ``observed_tbuff`` (feedback-lagged buffer delay),
    ``tbuff`` (current delay at the flow's tower), ``delivered``
    (delivered rate last step), ``active``, ``rtt``, and
    ``loss_epochs`` (overflow episodes registered so far, per-RTT
    hold-off applied).  Returned rates are floored at zero and masked
    to active flows.
    """

    kind = "policy"
    loss_based = True

    def __init__(self, index: Sequence[int], rtts: Sequence[float],
                 starts: Sequence[float], dt: float,
                 policy: Callable[[float, Dict[str, np.ndarray]],
                                  np.ndarray]) -> None:
        super().__init__(index, rtts, starts, dt)
        self.policy = policy

    def rates(self, t: float, observed: np.ndarray, tbuff_now: np.ndarray,
              delivered: np.ndarray, active: np.ndarray) -> np.ndarray:
        actions = np.asarray(
            self.policy(t, {
                "observed_tbuff": observed,
                "tbuff": tbuff_now,
                "delivered": delivered,
                "active": active,
                "rtt": self.rtt,
                "loss_epochs": self.loss_epochs,
            }),
            dtype=np.float64,
        )
        if actions.shape != (self.n,):
            raise ValueError(
                f"policy returned shape {actions.shape}; "
                f"expected ({self.n},)"
            )
        return np.where(active, np.maximum(actions, 0.0), 0.0)


def build_banks(specs: Sequence, dt: float) -> List[ControllerBank]:
    """Group :class:`FluidFlowSpec`s into controller banks.

    ``specs`` is the engine's flow list; flows keep their global index
    through each bank's ``index`` array, so engine arrays scatter and
    gather with plain fancy indexing.  ``"policy"`` flows are grouped
    per distinct policy callable, each group its own
    :class:`PolicyBank`.
    """
    pr_idx, pr_rtt, pr_start, pr_target = [], [], [], []
    ad_idx, ad_rtt, ad_start, ad_target, ad_floor = [], [], [], [], []
    cu_idx, cu_rtt, cu_start = [], [], []
    po_groups: Dict[int, list] = {}
    for i, spec in enumerate(specs):
        if spec.controller == "proprate":
            pr_idx.append(i)
            pr_rtt.append(spec.rtt)
            pr_start.append(spec.start)
            pr_target.append(spec.target_tbuff)
        elif spec.controller == "adaptive-proprate":
            ad_idx.append(i)
            ad_rtt.append(spec.rtt)
            ad_start.append(spec.start)
            ad_target.append(spec.target_tbuff)
            ad_floor.append(spec.min_target)
        elif spec.controller == "cubic":
            cu_idx.append(i)
            cu_rtt.append(spec.rtt)
            cu_start.append(spec.start)
        elif spec.controller == "policy":
            if spec.policy is None:
                raise ValueError(
                    "controller 'policy' needs a policy= callable"
                )
            group = po_groups.setdefault(id(spec.policy),
                                         [spec.policy, [], [], []])
            group[1].append(i)
            group[2].append(spec.rtt)
            group[3].append(spec.start)
        else:
            raise ValueError(
                f"unknown fluid controller {spec.controller!r}; "
                "have 'proprate', 'adaptive-proprate', 'cubic', and "
                "'policy'"
            )
    banks: List[ControllerBank] = []
    if pr_idx:
        banks.append(PropRateBank(pr_idx, pr_rtt, pr_start, dt, pr_target))
    if ad_idx:
        banks.append(
            AdaptivePropRateBank(ad_idx, ad_rtt, ad_start, dt,
                                 ad_target, ad_floor)
        )
    if cu_idx:
        banks.append(CubicBank(cu_idx, cu_rtt, cu_start, dt))
    for policy, idx, rtts, starts in po_groups.values():
        banks.append(PolicyBank(idx, rtts, starts, dt, policy))
    return banks
