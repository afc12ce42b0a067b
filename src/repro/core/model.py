"""The PropRate analytical model (paper §3, Equations 1–8).

PropRate oscillates the sending rate around the receive rate ρ, filling
the bottleneck buffer at σ_f = k_f·ρ and draining it at σ_d = k_d·ρ,
switching states when the measured buffer delay crosses a threshold T.
Because the measurement is delayed by roughly RTT + t_buff, the buffer
delay traces a sawtooth between D_max and D_min.

Two operating regimes exist (Figures 1 and 2):

* **buffer full** — the buffer never empties; utilisation U = 1 and the
  average buffer delay is (D_max + D_min)/2 (Eq. 2, first case);
* **buffer emptied** — the buffer periodically drains to zero for t_e
  per cycle; U = (t_f + t_d)/(t_f + t_d + t_e) < 1 and the average buffer
  delay is (D_max/2)·U (Eq. 2, second case).

Given an application latency budget L_max and a target average buffer
delay t̄_buff, §3.1 derives the regime and the (T, k_f, k_d) that produce
it.  This module implements those closed forms, and beside them the
ideal waveform they describe (:func:`simulate_sawtooth`, Figures 1–3):
a deterministic fluid integration of the two-state system, free of the
packet simulator's noise (timestamp quantisation, ACK spacing, bursts):

* the bottleneck drains the buffer at a constant rate ρ;
* the sender fills at σ_f = k_f·ρ or drains at σ_d = k_d·ρ;
* the controller sees the buffer delay only after the feedback lag — a
  packet sent at s is observed at ``s + t_buff(s) + RTT`` — and switches
  state when the *observed* delay crosses the threshold T.

Because observation lags reality, the actual delay overshoots T on both
sides, producing the sawtooth of Figure 1 (buffer full) or Figure 2
(buffer emptied, with an empty period t_e).  Running the integration
against :func:`derive_parameters` validates Equations 1–8: the measured
D_max, D_min, utilisation and average buffer delay match the closed
forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

#: Default gap between the latency budget and the base RTT when the
#: application does not specify L_max explicitly.  The paper's PR(M)
#: configuration (t̄_buff = 40 ms) sits "approximately at the crossover
#: point between the 2 regimes", which by Eq. 6 places the crossover at
#: (L_max − RTT)/2 = 40 ms, i.e. L_max − RTT = 80 ms.
DEFAULT_LMAX_HEADROOM = 0.080

#: Clamps keeping the control loop sane when estimates are degenerate.
KF_MIN, KF_MAX = 1.01, 4.0
KD_MIN, KD_MAX = 0.10, 0.99


class Regime(enum.Enum):
    """Which of the two waveform regimes the configuration operates in."""

    BUFFER_FULL = "buffer_full"
    BUFFER_EMPTIED = "buffer_emptied"


@dataclass(frozen=True)
class PropRateParams:
    """Operating parameters derived from (t̄_buff, RTT, L_max).

    All delays in seconds.  ``predicted_dmax``/``predicted_dmin`` are the
    steady-state sawtooth peak and trough the model predicts;
    ``utilization`` is U (1.0 in the buffer-full regime).
    """

    regime: Regime
    threshold: float          # T: the state-switch threshold
    kf: float                 # Buffer Fill rate multiplier (> 1)
    kd: float                 # Buffer Drain rate multiplier (< 1)
    utilization: float        # U
    predicted_dmax: float
    predicted_dmin: float
    target_tbuff: float
    rtt: float
    lmax: float

    @property
    def predicted_avg_tbuff(self) -> float:
        """Eq. 2 applied to the predicted waveform."""
        return average_buffer_delay(
            self.predicted_dmax, self.predicted_dmin, self.utilization, self.regime
        )


def utilization(tf: float, td: float, te: float) -> float:
    """Eq. 1: link utilisation from the per-cycle phase durations.

    ``tf`` is the time in Buffer Fill, ``td`` the time draining a
    non-empty buffer, and ``te`` the time the buffer sits empty.
    """
    if min(tf, td, te) < 0:
        raise ValueError("phase durations must be non-negative")
    total = tf + td + te
    if total <= 0:
        raise ValueError("at least one phase must have positive duration")
    return (tf + td) / total


def average_buffer_delay(
    dmax: float, dmin: float, u: float, regime: Regime
) -> float:
    """Eq. 2: average buffer delay of the sawtooth waveform."""
    if regime is Regime.BUFFER_FULL:
        return (dmax + dmin) / 2.0
    return (dmax / 2.0) * u


def crossover_buffer_delay(lmax: float, rtt: float) -> float:
    """Eq. 6 boundary: targets below (L_max − RTT)/2 need the emptied regime."""
    if lmax <= rtt:
        raise ValueError("L_max must exceed the base RTT")
    return (lmax - rtt) / 2.0


def emptied_regime_utilization(threshold: float, lmax: float, rtt: float) -> float:
    """Eq. 8 first line: U = (2T / (L_max − RTT))^(1/4), clipped to 1."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    headroom = lmax - rtt
    if headroom <= 0:
        raise ValueError("L_max must exceed the base RTT")
    return min(1.0, (2.0 * threshold / headroom) ** 0.25)


def max_buffer_delay(u: float, lmax: float, rtt: float) -> float:
    """Eq. 4: D_max = U³ (L_max − RTT) — the peak shrinks faster than U."""
    if not 0 <= u <= 1:
        raise ValueError("utilisation must be in [0, 1]")
    return (u ** 3) * (lmax - rtt)


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


def derive_parameters(
    target_tbuff: float,
    rtt: float,
    lmax: Optional[float] = None,
) -> PropRateParams:
    """§3.1: derive (regime, T, k_f, k_d) from the application's target.

    Parameters
    ----------
    target_tbuff:
        Target average buffer delay t̄_buff (seconds).
    rtt:
        Round-trip time *excluding* buffer delay (propagation RTT).
    lmax:
        Application latency budget.  Defaults to
        ``rtt + DEFAULT_LMAX_HEADROOM``, which reproduces the paper's
        regime split for PR(L)/PR(M)/PR(H).
    """
    if target_tbuff <= 0:
        raise ValueError("target buffer delay must be positive")
    if rtt <= 0:
        raise ValueError("RTT must be positive")
    if lmax is None:
        lmax = rtt + DEFAULT_LMAX_HEADROOM
    if lmax <= rtt:
        raise ValueError("L_max must exceed the base RTT")

    headroom = lmax - rtt
    # The target is infeasible beyond the headroom; cap it (§3.1 expects
    # t̄_buff <= L_max − RTT).
    target = min(target_tbuff, headroom)
    threshold = target  # initial T = t̄_buff; the NFL refines it online.

    if target >= crossover_buffer_delay(lmax, rtt):
        return _buffer_full_params(threshold, rtt, target, lmax)
    return _buffer_emptied_params(threshold, rtt, target, lmax)


def params_for_threshold(
    threshold: float,
    rtt: float,
    target_tbuff: float,
    lmax: float,
) -> PropRateParams:
    """Recompute (k_f, k_d) for an NFL-adjusted threshold T.

    The regime is still chosen by the *target*; the threshold only moves
    the operating point of the control loop.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if target_tbuff >= crossover_buffer_delay(lmax, rtt):
        return _buffer_full_params(threshold, rtt, target_tbuff, lmax)
    return _buffer_emptied_params(threshold, rtt, target_tbuff, lmax)


def _buffer_full_params(
    threshold: float, rtt: float, target: float, lmax: float
) -> PropRateParams:
    """Eq. 7 with the Figure-3(e) waveform: D_max−D_min = t̄, D_min = t̄/2."""
    t = threshold
    kf = (1.5 * t + rtt) / (t + rtt)
    kd = (0.5 * t + rtt) / (t + rtt)
    return PropRateParams(
        regime=Regime.BUFFER_FULL,
        threshold=t,
        kf=_clamp(kf, KF_MIN, KF_MAX),
        kd=_clamp(kd, KD_MIN, KD_MAX),
        utilization=1.0,
        predicted_dmax=1.5 * t,
        predicted_dmin=0.5 * t,
        target_tbuff=target,
        rtt=rtt,
        lmax=lmax,
    )


def _buffer_emptied_params(
    threshold: float, rtt: float, target: float, lmax: float
) -> PropRateParams:
    """Eq. 8: the buffer is deliberately emptied each cycle (U < 1)."""
    t = threshold
    u = emptied_regime_utilization(t, lmax, rtt)
    kf = ((2.0 / u) * t + rtt) / (t + rtt)
    dmax = max_buffer_delay(u, lmax, rtt)
    kf_c = _clamp(kf, KF_MIN, KF_MAX)
    tf = dmax / (kf_c - 1.0)
    skew = (1.0 - u) / u
    denominator = (1.0 / u) * t + rtt - skew * tf
    if denominator <= 1e-9:
        kd = KD_MIN
    else:
        kd = (rtt - skew * kf_c * tf) / denominator
    return PropRateParams(
        regime=Regime.BUFFER_EMPTIED,
        threshold=t,
        kf=kf_c,
        kd=_clamp(kd, KD_MIN, KD_MAX),
        utilization=u,
        predicted_dmax=dmax,
        predicted_dmin=0.0,
        target_tbuff=target,
        rtt=rtt,
        lmax=lmax,
    )


# ----------------------------------------------------------------------
# The ideal waveform
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FluidResult:
    """Steady-state summary of a fluid run.

    ``times``/``tbuff`` hold the full waveform; the scalar summaries are
    measured over the final ``measure_fraction`` of the run (transients
    discarded).
    """

    times: np.ndarray
    tbuff: np.ndarray
    states: np.ndarray            # +1 fill, -1 drain
    dmax: float
    dmin: float
    avg_tbuff: float
    utilization: float            # fraction of time the buffer is non-empty,
                                  # plus fill time (Eq. 1)
    period: float                 # mean cycle duration (fill->fill)
    empty_fraction: float         # t_e / cycle


def simulate_sawtooth(
    rho: float,
    rtt: float,
    threshold: float,
    kf: float,
    kd: float,
    duration: float = 20.0,
    dt: float = 1e-4,
    initial_tbuff: float = 0.0,
    measure_fraction: float = 0.5,
) -> FluidResult:
    """Integrate the fluid system and summarise its steady state.

    Parameters
    ----------
    rho:
        Bottleneck (receive) rate, any consistent unit — it cancels out
        of the delay dynamics, which evolve at (k−1) seconds/second.
    rtt:
        Feedback round-trip time excluding buffer delay.
    threshold:
        State-switch threshold T on the *observed* buffer delay.
    kf, kd:
        Fill and drain rate multipliers (k_f > 1 > k_d ≥ 0).
    duration, dt:
        Integration horizon and step.
    initial_tbuff:
        Starting buffer delay.
    measure_fraction:
        Trailing fraction of the run used for steady-state statistics.
    """
    if kf <= 1.0:
        raise ValueError("kf must exceed 1")
    if not 0.0 <= kd < 1.0:
        raise ValueError("kd must be in [0, 1)")
    if rho <= 0 or rtt <= 0:
        raise ValueError("rho and rtt must be positive")
    # threshold == 0 is a legal degenerate placement: the controller
    # drains as soon as any queueing is observed and never re-fills
    # (observed delay cannot go *below* zero), so the queue empties and
    # stays empty — the T→0 limit of Eq. 5's trade-off.
    if threshold < 0:
        raise ValueError("threshold must be non-negative")

    n = int(round(duration / dt))
    times = np.arange(n) * dt
    tbuff = np.empty(n)
    states = np.empty(n, dtype=np.int8)

    fill = True  # start filling an empty buffer
    q = initial_tbuff  # buffer delay is queue/rho; integrate delay directly
    obs_ptr = 0  # index s such that s*dt + tbuff[s] + rtt ~ now
    rise = kf - 1.0
    fall = kd - 1.0

    for i in range(n):
        tbuff[i] = q
        states[i] = 1 if fill else -1

        # Advance the observation pointer: the controller at time t sees
        # the buffer delay experienced by the newest packet whose ACK has
        # returned, i.e. the largest s with s + tbuff(s) + rtt <= t.
        t_now = times[i]
        while (
            obs_ptr < i
            and times[obs_ptr + 1] + tbuff[obs_ptr + 1] + rtt <= t_now
        ):
            obs_ptr += 1
        observed = tbuff[obs_ptr] if times[obs_ptr] + tbuff[obs_ptr] + rtt <= t_now else 0.0

        if fill and observed > threshold:
            fill = False
        elif not fill and observed < threshold:
            fill = True

        rate = rise if fill else fall
        q = max(0.0, q + rate * dt)

    start = int(n * (1.0 - measure_fraction))
    tail = tbuff[start:]
    tail_states = states[start:]
    dmax = float(tail.max())
    dmin = _steady_trough(tail)
    avg = float(tail.mean())
    empty = float(np.mean(tail <= dt))  # numerically-zero buffer
    util = 1.0 - empty
    period = _mean_period(times[start:], tail_states)
    return FluidResult(
        times=times,
        tbuff=tbuff,
        states=states,
        dmax=dmax,
        dmin=dmin,
        avg_tbuff=avg,
        utilization=util,
        period=period,
        empty_fraction=empty,
    )


def _steady_trough(tail: np.ndarray) -> float:
    """Mean of the local minima of the waveform (the troughs)."""
    interior = tail[1:-1]
    minima = (interior <= tail[:-2]) & (interior <= tail[2:]) & (
        (interior < tail[:-2]) | (interior < tail[2:])
    )
    values = interior[minima]
    if values.size == 0:
        return float(tail.min())
    return float(values.mean())


def _mean_period(times: np.ndarray, states: np.ndarray) -> float:
    """Mean time between successive drain→fill transitions."""
    flips = np.where((states[1:] == 1) & (states[:-1] == -1))[0]
    if flips.size < 2:
        return float("nan")
    return float(np.diff(times[flips + 1]).mean())


def waveform_phases(result: FluidResult) -> List[Tuple[str, float]]:
    """Decompose a run into (phase, duration) pairs: fill / drain / empty.

    Useful for checking Eq. 1 directly: U = (t_f + t_d)/(t_f + t_d + t_e).
    """
    dt = float(result.times[1] - result.times[0]) if result.times.size > 1 else 0.0
    phases: List[Tuple[str, float]] = []
    current = None
    count = 0
    for state, delay in zip(result.states, result.tbuff):
        if state == 1:
            label = "fill"
        elif delay <= dt:
            label = "empty"
        else:
            label = "drain"
        if label == current:
            count += 1
        else:
            if current is not None:
                phases.append((current, count * dt))
            current = label
            count = 1
    if current is not None:
        phases.append((current, count * dt))
    return phases
