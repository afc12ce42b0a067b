"""The reference fluid step loop.

:func:`reference_integrate` is the fluid tier's step loop as it stood
before its per-step cost was halved (every mask and product rebuilt
every step, CUBIC cubed with ``** 3``); tests/test_fluid_diff.py holds
:func:`repro.fluid.run_fluid` to it.

The loss side is frozen too: every loss-based bank below carries its
own copy of the per-RTT overflow hold-off and of its reaction, and the
adaptive bank its own copy of the §6 rule, as they stood before the
hold-off moved into ``ControllerBank.on_overflow`` and the rule into
``repro.core.adaptive.TargetAdjuster`` — so the differential compares
the shipped code with the code it replaced, not with itself.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

import repro.fluid.controllers as fluid_controllers
from repro.core.model import derive_parameters
from repro.fluid.engine import (
    CAPACITY_REF_FLOOR,
    CAPACITY_REF_TAU,
    DEFAULT_CAPACITY_WINDOW,
    DEFAULT_DT,
    FluidFlowResult,
    FluidReport,
    TowerSummary,
)
from repro.metrics.stats import jain_fairness
from tests.reference.adaptive import (
    EPISODE_MEMORY,
    LOSS_EPISODES_TO_SHRINK,
    RECOVERY_QUIET_TIME,
    RECOVERY_STEP,
    SHRINK_FACTOR,
)


class ReferencePropRateBank(fluid_controllers.PropRateBank):
    """PropRate bank with the int8 mode array and the per-call mode
    comparisons :func:`reference_integrate` was written against."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ref_mode = np.full(self.n, fluid_controllers.STARTUP,
                                dtype=np.int8)

    def _derive(self, which) -> None:
        for i in which:
            params = derive_parameters(float(self.target[i]),
                                       float(self.rtt[i]))
            self.threshold[i] = params.threshold
            self.kf[i] = params.kf
            self.kd[i] = params.kd

    def rates(self, t, observed, tbuff_now, delivered, active):
        STARTUP, FILL, DRAIN = (fluid_controllers.STARTUP,
                                fluid_controllers.FILL,
                                fluid_controllers.DRAIN)
        feedback = active & (t >= self.start + self.rtt)
        holding = (self.ref_mode == DRAIN) & (delivered < self.rho)
        alpha = np.where(holding, self._alpha_hold, self._alpha_fast)
        self.rho = np.where(
            feedback,
            np.maximum(self.rho + alpha * (delivered - self.rho),
                       self._rho_floor),
            self.rho,
        )
        above = observed > self.threshold
        below = observed < self.threshold
        startup = self.ref_mode == STARTUP
        fill = self.ref_mode == FILL
        drain = self.ref_mode == DRAIN
        self.ref_mode = np.where((startup | fill) & above, DRAIN,
                                 self.ref_mode)
        self.ref_mode = np.where(drain & below, FILL, self.ref_mode)
        gain = np.where(self.ref_mode == STARTUP, 2.0,
                        np.where(self.ref_mode == FILL, self.kf, self.kd))
        return np.where(active, gain * self.rho, 0.0)


class ReferenceAdaptivePropRateBank(ReferencePropRateBank):
    """The §6 rule written out over five state arrays, on
    :class:`ReferencePropRateBank`."""

    kind = "adaptive-proprate"
    loss_based = True

    def __init__(self, index, rtts, starts, dt, targets, min_targets):
        super().__init__(index, rtts, starts, dt, targets)
        self.configured_target = self.target.copy()
        self.min_target = np.asarray(min_targets, dtype=np.float64)
        if bool((self.min_target <= 0).any()) or bool(
            (self.min_target > self.configured_target).any()
        ):
            raise ValueError("min_target must be in (0, target]")
        self.consecutive = np.zeros(self.n, dtype=np.int64)
        self.last_episode_at = np.full(self.n, -np.inf)
        self.last_loss_at = np.zeros(self.n)
        self.last_recovery_at = np.full(self.n, -np.inf)
        self.last_loss = np.full(self.n, -np.inf)
        self.target_adjustments = np.zeros(self.n, dtype=np.int64)

    def _apply_targets(self, mask, proposed):
        clamped = np.minimum(self.configured_target,
                             np.maximum(self.min_target, proposed))
        changed = mask & (np.abs(clamped - self.target) >= 1e-9)
        if not bool(changed.any()):
            return
        self.target = np.where(changed, clamped, self.target)
        self._derive(np.nonzero(changed)[0])
        self.target_adjustments += changed

    def rates(self, t, observed, tbuff_now, delivered, active):
        quiet = (
            active
            & (t - self.last_loss_at >= RECOVERY_QUIET_TIME)
            & (t - self.last_recovery_at >= RECOVERY_QUIET_TIME)
            & (self.target < self.configured_target)
        )
        if bool(quiet.any()):
            self.last_recovery_at = np.where(quiet, t, self.last_recovery_at)
            self._apply_targets(quiet, self.target + RECOVERY_STEP)
        return super().rates(t, observed, tbuff_now, delivered, active)

    def on_overflow(self, t, hit):
        react = hit & (t - self.last_loss > self.rtt)
        if not bool(react.any()):
            return 0
        self.last_loss = np.where(react, t, self.last_loss)
        self.last_loss_at = np.where(react, t, self.last_loss_at)
        linked = react & (t - self.last_episode_at <= EPISODE_MEMORY)
        self.consecutive = np.where(
            react, np.where(linked, self.consecutive + 1, 1),
            self.consecutive,
        )
        self.last_episode_at = np.where(react, t, self.last_episode_at)
        shrink = react & (self.consecutive >= LOSS_EPISODES_TO_SHRINK)
        if bool(shrink.any()):
            self.consecutive = np.where(shrink, 0, self.consecutive)
            self._apply_targets(shrink, self.target * SHRINK_FACTOR)
        self.loss_epochs += react
        return int(react.sum())


class ReferenceLossCubicBank(fluid_controllers.CubicBank):
    """The shipped CUBIC window curve with the loss reaction and its
    per-RTT hold-off written out in the bank."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.last_loss = np.full(self.n, -np.inf)

    def on_overflow(self, t, hit):
        react = hit & (t - self.last_loss > self.rtt)
        if not bool(react.any()):
            return 0
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
        self.last_loss = np.where(react, t, self.last_loss)
        self.loss_epochs += react
        return int(react.sum())


class ReferencePolicyBank(fluid_controllers.PolicyBank):
    """Policy bank with its per-RTT hold-off written out in the bank."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.last_loss = np.full(self.n, -np.inf)

    def on_overflow(self, t, hit):
        react = hit & (t - self.last_loss > self.rtt)
        if not bool(react.any()):
            return 0
        self.last_loss = np.where(react, t, self.last_loss)
        self.loss_epochs += react
        return int(react.sum())


class ReferenceCubicBank(ReferenceLossCubicBank):
    """CUBIC bank cubing with numpy's ``** 3``."""

    def rates(self, t, observed, tbuff_now, delivered, active):
        grow = active & self.slow_start
        self.w = np.where(grow, self.w * self._ss_growth, self.w)
        tau = t - self.epoch
        w_cubic = self.C * (tau - self.k) ** 3 + self.w_max
        self.w = np.where(active & ~self.slow_start, w_cubic, self.w)
        self.w = np.maximum(self.w, self.MIN_CWND)
        rate = self.w * fluid_controllers.MSS / (self.rtt + tbuff_now)
        return np.where(active, rate, 0.0)


def reference_integrate(flows, towers, duration, dt=DEFAULT_DT,
                        measure_start=5.0, measure_end=None, handovers=(),
                        capacity_window=DEFAULT_CAPACITY_WINDOW,
                        cube_by_pow=True) -> FluidReport:
    """The fluid step loop before PR 14, observers stripped: every
    mask, gather and ``dt`` product rebuilt at every step, the reference
    banks above.  ``cube_by_pow=False`` keeps the shipped CUBIC window
    curve (with the frozen loss reaction), so the loop rewrite can be
    held to byte-identity on its own."""
    MSS = fluid_controllers.MSS
    if measure_end is None:
        measure_end = duration
    n_flows = len(flows)
    n_towers = len(towers)
    n_steps = int(round(duration / dt))

    profiles = np.stack([
        tower.capacity_profile(duration, capacity_window)
        for tower in towers
    ])
    window_of_step = np.minimum(
        (np.arange(n_steps) * dt / capacity_window).astype(np.intp),
        profiles.shape[1] - 1,
    )
    cap = profiles[:, window_of_step]

    tower_id = np.array([f.tower for f in flows], dtype=np.intp)
    start = np.array([f.start for f in flows])
    rtt = np.array([f.rtt for f in flows])
    rtt_steps = np.maximum(1, np.rint(rtt / dt).astype(np.intp))
    mstart = np.maximum(measure_start, start)
    reference_banks = dict(
        PropRateBank=ReferencePropRateBank,
        AdaptivePropRateBank=ReferenceAdaptivePropRateBank,
        CubicBank=(ReferenceCubicBank if cube_by_pow
                   else ReferenceLossCubicBank),
        PolicyBank=ReferencePolicyBank,
    )
    with mock.patch.multiple(fluid_controllers, **reference_banks):
        banks = fluid_controllers.build_banks(flows, dt)

    x = np.zeros(n_flows)
    delivered = np.zeros(n_flows)
    handover_count = np.zeros(n_flows, dtype=np.int64)

    queue = np.zeros(n_towers)
    buffer_bytes = np.array([t.buffer_packets * MSS for t in towers])
    cap_ref = np.maximum(cap[:, 0], CAPACITY_REF_FLOOR)
    alpha_ref = 1.0 - math.exp(-dt / CAPACITY_REF_TAU)
    overflowing = np.zeros(n_towers, dtype=bool)
    dropped = np.zeros(n_towers)
    tower_loss_epochs = np.zeros(n_towers, dtype=np.int64)

    arr_hist = np.zeros((n_towers, n_steps + 1))
    srv_cum = np.zeros(n_towers)
    exit_ptr = np.zeros(n_towers, dtype=np.intp)
    delay_hist = np.zeros((n_towers, n_steps + 1))
    tower_range = np.arange(n_towers)

    delivered_bytes = np.zeros(n_flows)
    tb_sum = np.zeros(n_flows)
    tb_time = np.zeros(n_flows)
    tb_max = np.zeros(n_flows)
    cap_sum = np.zeros(n_flows)
    served_sum = np.zeros(n_towers)
    tower_cap_sum = np.zeros(n_towers)
    tower_peak = np.zeros(n_towers)

    plan = sorted(handovers, key=lambda h: (h.time, h.flow))
    plan_i = 0
    handovers_applied = 0

    for step in range(n_steps):
        t = step * dt

        while plan_i < len(plan) and plan[plan_i].time <= t:
            ho = plan[plan_i]
            plan_i += 1
            if tower_id[ho.flow] != ho.to_tower:
                tower_id[ho.flow] = ho.to_tower
                handover_count[ho.flow] += 1
                handovers_applied += 1

        active = start <= t

        obs_idx = np.maximum(step - rtt_steps, 0)
        observed = delay_hist[tower_id, obs_idx]
        observed = np.where(t - start < rtt, 0.0, observed)

        tb_now = (queue / cap_ref)[tower_id]

        for bank in banks:
            idx = bank.index
            x[idx] = bank.rates(
                t, observed[idx], tb_now[idx], delivered[idx], active[idx]
            )

        arrival = np.bincount(tower_id, weights=x, minlength=n_towers)
        c_now = cap[:, step]
        backlogged = (queue > 0.0) | (arrival > c_now)
        serve = np.where(backlogged, c_now, arrival)
        share = np.where(arrival > 0.0, serve / np.maximum(arrival, 1e-12),
                         0.0)
        delivered = x * share[tower_id]

        queue = queue + (arrival - serve) * dt
        np.maximum(queue, 0.0, out=queue)
        over = queue > buffer_bytes
        excess = np.zeros(n_towers)
        if bool(over.any()):
            excess = np.where(over, queue - buffer_bytes, 0.0)
            dropped += excess
            np.minimum(queue, buffer_bytes, out=queue)
            tower_loss_epochs += over & ~overflowing
            for bank in banks:
                if not bank.loss_based:
                    continue
                idx = bank.index
                hit = over[tower_id[idx]] & (x[idx] > 0.0)
                bank.on_overflow(t, hit)
        overflowing = over

        arr_hist[:, step + 1] = arr_hist[:, step] + arrival * dt - excess
        srv_cum += serve * dt
        while True:
            nxt = np.minimum(exit_ptr + 1, step + 1)
            can_advance = (exit_ptr < step + 1) & (
                arr_hist[tower_range, nxt] <= srv_cum
            )
            if not bool(can_advance.any()):
                break
            exit_ptr += can_advance
        delay_hist[:, step + 1] = np.where(
            queue > 0.0, (step + 1 - exit_ptr) * dt, 0.0
        )

        cap_ref += alpha_ref * (c_now - cap_ref)
        np.maximum(cap_ref, CAPACITY_REF_FLOOR, out=cap_ref)
        tbuff = delay_hist[:, step + 1]

        measuring = active & (t >= mstart) & (t < measure_end)
        if bool(measuring.any()):
            d_m = np.where(measuring, delivered, 0.0)
            delivered_bytes += d_m * dt
            tb_flow = tbuff[tower_id]
            tb_sum += np.where(measuring, tb_flow, 0.0) * dt
            tb_time += measuring * dt
            np.maximum(tb_max, np.where(measuring, tb_flow, 0.0),
                       out=tb_max)
            cap_sum += np.where(measuring, c_now[tower_id], 0.0) * dt
        if measure_start <= t < measure_end:
            served_sum += serve * dt
            tower_cap_sum += c_now * dt
            np.maximum(tower_peak, tbuff, out=tower_peak)

    loss_by_flow = np.zeros(n_flows, dtype=np.int64)
    kind_by_flow = [""] * n_flows
    for bank in banks:
        loss_by_flow[bank.index] = bank.loss_epochs
        for i in bank.index:
            kind_by_flow[i] = bank.kind

    flow_results = []
    for i, spec in enumerate(flows):
        window = max(measure_end - float(mstart[i]), 0.0)
        goodput = delivered_bytes[i] / window if window > 0 else 0.0
        capacity = cap_sum[i] / window if window > 0 else 0.0
        measured = tb_time[i] > 0.0
        flow_results.append(
            FluidFlowResult(
                name=spec.name or f"flow{i}",
                controller=kind_by_flow[i],
                goodput=float(goodput),
                delivered_bytes=float(delivered_bytes[i]),
                avg_tbuff=float(tb_sum[i] / tb_time[i]) if measured
                else float("nan"),
                max_tbuff=float(tb_max[i]) if measured else float("nan"),
                utilization=(
                    float(goodput / capacity) if capacity > 0 else None
                ),
                loss_epochs=int(loss_by_flow[i]),
                handovers=int(handover_count[i]),
                final_tower=int(tower_id[i]),
                measure_start=float(mstart[i]),
                measure_end=float(measure_end),
            )
        )

    tower_summaries = []
    window = max(measure_end - measure_start, 1e-9)
    for j, tower in enumerate(towers):
        tower_summaries.append(
            TowerSummary(
                name=tower.name or f"tower{j}",
                flows_final=int(np.count_nonzero(tower_id == j)),
                mean_capacity=float(tower_cap_sum[j] / window),
                utilization=(
                    float(served_sum[j] / tower_cap_sum[j])
                    if tower_cap_sum[j] > 0 else 0.0
                ),
                peak_tbuff=float(tower_peak[j]),
                dropped_bytes=float(dropped[j]),
                loss_epochs=int(tower_loss_epochs[j]),
            )
        )

    return FluidReport(
        flows=flow_results,
        towers=tower_summaries,
        jfi=jain_fairness([f.goodput for f in flow_results]),
        duration=duration,
        dt=dt,
        steps=n_steps,
        handovers_applied=handovers_applied,
    )
