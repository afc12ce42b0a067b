"""Fluid controller banks for the flow-level tier.

The packet tier steps one event at a time; the fluid tier steps *time*
and needs every flow's control decision at every step.  Each bank holds
the state of all flows of one controller family as numpy arrays and
answers two questions per step:

* :meth:`rates` — the send rate (bytes/s) each flow demands right now,
  given its *lagged* observation of the bottleneck buffer delay;
* :meth:`on_overflow` — which flows register a loss epoch when their
  tower's buffer overflows (loss-based controllers only).

The PropRate and CUBIC rate laws and the per-RTT overflow hold-off are
C (``step.c``, loaded by :mod:`repro.fluid.kernel`): the engine's step
kernel runs them on the banks' arrays in place, and the two methods
above run them for one bank.  Loss reactions stay here.

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

A control-plane extension rides on those families:

* :class:`PolicyBank` — externally driven rates, the fluid face of the
  :mod:`repro.env` control-plane split: a callable policy receives the
  fleet's observation arrays once per step and returns the per-flow
  send-rate action array.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.model import derive_parameters
from repro.core.proprate import RHO_HOLD_TAU
from repro.fluid import kernel
from repro.tcp.congestion.cubic import Cubic

__all__ = [
    "ControllerBank",
    "PropRateBank",
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


class ControllerBank:
    """State for all flows of one controller family.

    ``index`` maps the bank's local order to engine flow indices; all
    per-flow arrays below are in local order.  The arrays are updated in
    place, never rebound: the step kernel holds their addresses.
    Subclasses fill in the family-specific state, name the kernel's rate
    law for it, and react to loss epochs.
    """

    #: Report label for flows of this bank.
    kind = "base"
    #: Whether tower buffer overflow is a congestion signal.
    loss_based = False
    #: The kernel's rate law for the family (``kernel.LAW_*``).
    law = kernel.LAW_NONE
    #: Whether the engine leaves the rates to :meth:`rates` in Python
    #: (a law or rule written in Python) instead of running ``law``.
    python_rates = True

    def __init__(self, index: Sequence[int], rtts: Sequence[float],
                 starts: Sequence[float], dt: float) -> None:
        self.index = np.array(index, dtype=np.int64)
        self.n = int(self.index.size)
        self.rtt = np.array(rtts, dtype=np.float64)
        self.start = np.array(starts, dtype=np.float64)
        self.dt = float(dt)
        #: Loss epochs registered per flow (report statistic).
        self.loss_epochs = np.zeros(self.n, dtype=np.int64)
        #: When each flow last registered one (the per-RTT hold-off).
        self.last_loss = np.full(self.n, -np.inf)
        #: The flows the last overflow's hold-off let through.
        self.react = np.zeros(self.n, dtype=bool)
        self._kernel_bank: Optional[kernel.Bank] = None
        # Kept alive here: ``Bank.state`` holds only its address.
        self._law_state: Optional[ctypes.Structure] = None

    def _law_arrays(self) -> Optional[ctypes.Structure]:
        """The family's rate-law state as the kernel reads it."""
        return None

    @property
    def kernel_bank(self) -> kernel.Bank:
        """The bank as ``step.c`` sees it (built on first use)."""
        if self._kernel_bank is None:
            state = self._law_state = self._law_arrays()
            ptr = kernel.pointer
            self._kernel_bank = kernel.Bank(
                law=self.law, python_rates=self.python_rates,
                loss_based=self.loss_based, n=self.n,
                index=ptr(self.index), rtt=ptr(self.rtt),
                last_loss=ptr(self.last_loss),
                loss_epochs=ptr(self.loss_epochs), react=ptr(self.react),
                state=None if state is None else ctypes.addressof(state),
            )
        return self._kernel_bank

    def _local(self, values: np.ndarray, dtype: type) -> np.ndarray:
        """``values`` as the kernel reads a local-order array."""
        array = np.ascontiguousarray(values, dtype=dtype)
        if array.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},) for the bank's "
                             f"flows, got {array.shape}")
        return array

    def rates(self, t: float, observed: np.ndarray, tbuff_now: np.ndarray,
              delivered: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Send rates (bytes/s, local order) for simulated time ``t``.

        ``observed`` is the feedback-lagged buffer delay each flow sees,
        ``tbuff_now`` the current delay at the flow's tower (for rate
        conversion — self-clocking sees the real queue), ``delivered``
        the flow's delivered rate last step, ``active`` whether the flow
        has started.  Runs the family's kernel law on the bank's state.
        """
        observed, tbuff_now, delivered = (
            self._local(a, np.float64) for a in (observed, tbuff_now, delivered)
        )
        active = self._local(active, bool)
        out = np.empty(self.n)
        kernel.library().bank_rates(
            ctypes.byref(self.kernel_bank), t, observed.ctypes.data,
            tbuff_now.ctypes.data, delivered.ctypes.data, active.ctypes.data,
            out.ctypes.data,
        )
        return out

    def on_overflow(self, t: float, hit: np.ndarray) -> int:
        """Register a loss epoch for flows in ``hit`` (local bool mask).

        One loss epoch per RTT per flow: a multi-step overflow burst is
        one congestion event, as the packet scoreboard treats it.  The
        flows that pass the hold-off get the family's :meth:`react_to_loss`.
        Returns how many flows reacted; rate-based families ignore the
        signal entirely.
        """
        if not self.loss_based:
            return 0
        hit = self._local(hit, bool)
        reacted = int(kernel.library().bank_overflow(
            ctypes.byref(self.kernel_bank), t, hit.ctypes.data))
        if reacted:
            self.react_to_loss(t, self.react)
        return reacted

    def react_to_loss(self, t: float, react: np.ndarray) -> None:
        """The family's response to a loss epoch of the ``react`` flows
        (past the hold-off, which the kernel applies)."""


class PropRateBank(ControllerBank):
    """Fluid PropRate: the §3 two-state oscillator (``step.c``)."""

    kind = "proprate"
    loss_based = False
    law = kernel.LAW_PROPRATE
    python_rates = False

    def __init__(self, index: Sequence[int], rtts: Sequence[float],
                 starts: Sequence[float], dt: float,
                 targets: Sequence[float]) -> None:
        super().__init__(index, rtts, starts, dt)
        self.target = np.array(targets, dtype=np.float64)
        # The operating point: one derive_parameters call per distinct
        # (target, rtt).
        pairs, inverse = np.unique(
            np.stack([self.target, self.rtt], axis=1),
            axis=0, return_inverse=True,
        )
        derived = np.array([
            (params.threshold, params.kf, params.kd)
            for params in (derive_parameters(float(target), float(rtt))
                           for target, rtt in pairs)
        ])
        self.threshold, self.kf, self.kd = (
            derived[inverse.reshape(-1)].T.copy()
        )
        #: Fill/drain oscillator state: a flow is in Startup until its
        #: first threshold crossing, then in Drain or Fill.
        self.startup = np.ones(self.n, dtype=bool)
        self.drain = np.zeros(self.n, dtype=bool)
        #: ρ̂ bootstrap: the IW=10 probe burst's implied rate.
        self.rho = INITIAL_WINDOW * MSS / self.rtt
        self.rho_floor = RHO_FLOOR_SEGMENTS * MSS / self.rtt
        #: EWMA gains: RTT time constant while measuring, RHO_HOLD_TAU
        #: while deliberately under-sending in Drain.
        self.alpha_fast = 1.0 - np.exp(-dt / self.rtt)
        self.alpha_hold = 1.0 - float(np.exp(-dt / RHO_HOLD_TAU))
        #: When each flow's first feedback returns (one RTT after start).
        self.feedback_from = self.start + self.rtt

    def _law_arrays(self) -> kernel.PropRate:
        ptr = kernel.pointer
        return kernel.PropRate(
            rho=ptr(self.rho), threshold=ptr(self.threshold),
            kf=ptr(self.kf), kd=ptr(self.kd), rho_floor=ptr(self.rho_floor),
            alpha_fast=ptr(self.alpha_fast),
            feedback_from=ptr(self.feedback_from),
            startup=ptr(self.startup), drain=ptr(self.drain),
            alpha_hold=self.alpha_hold,
        )


class CubicBank(ControllerBank):
    """Fluid CUBIC: the real-time window curve (``step.c``) driven by
    loss epochs."""

    kind = "cubic"
    loss_based = True
    law = kernel.LAW_CUBIC
    python_rates = False

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
        #: Continuous doubling per RTT.
        self.ss_growth = 2.0 ** (dt / self.rtt)

    def _law_arrays(self) -> kernel.Cubic:
        ptr = kernel.pointer
        return kernel.Cubic(
            w=ptr(self.w), w_max=ptr(self.w_max), k=ptr(self.k),
            epoch=ptr(self.epoch), ss_growth=ptr(self.ss_growth),
            slow_start=ptr(self.slow_start), c=self.C,
            min_cwnd=self.MIN_CWND, mss=MSS,
        )

    def react_to_loss(self, t: float, react: np.ndarray) -> None:
        # numpy's cbrt, not libm's: the two disagree in the last bit on
        # about half of all inputs (docs/fluid.md, "Cost of a step").
        np.copyto(self.w_max, self.w, where=react)
        np.copyto(self.k, np.cbrt(self.w_max * (1.0 - self.BETA) / self.C),
                  where=react)
        np.copyto(self.w, np.maximum(self.BETA * self.w, self.MIN_CWND),
                  where=react)
        self.epoch[react] = t
        self.slow_start &= ~react


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
    cu_idx, cu_rtt, cu_start = [], [], []
    po_groups: Dict[int, list] = {}
    for i, spec in enumerate(specs):
        if spec.controller == "proprate":
            pr_idx.append(i)
            pr_rtt.append(spec.rtt)
            pr_start.append(spec.start)
            pr_target.append(spec.target_tbuff)
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
                "have 'proprate', 'cubic', and 'policy'"
            )
    banks: List[ControllerBank] = []
    if pr_idx:
        banks.append(PropRateBank(pr_idx, pr_rtt, pr_start, dt, pr_target))
    if cu_idx:
        banks.append(CubicBank(cu_idx, cu_rtt, cu_start, dt))
    for policy, idx, rtts, starts in po_groups.values():
        banks.append(PolicyBank(idx, rtts, starts, dt, policy))
    return banks
