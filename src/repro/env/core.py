"""The control-plane environment: a step/observe/act face on a run.

:class:`CcEnv` wraps one single-flow packet-tier experiment as a
gym-style environment: ``reset() → obs``, ``step(action) → (obs,
reward, done, info)``.  The flow's congestion control is a
:class:`~repro.tcp.congestion.policy.PolicyDriven` adapter (or its
window twin), so external decisions travel through exactly the sender
code path native algorithms use, and wrapping a native algorithm as the
adapter's ``inner`` turns the env into a bit-identical *replay* of the
native run — the determinism contract ``scripts/check_determinism.py
--env`` enforces.

Observations are a versioned vector (:data:`OBS_VERSION`,
:data:`OBS_FIELDS`); see ``docs/env.md`` for the full schema, action
vocabulary, and versioning rules.  Actions are applied at feedback-
epoch granularity: each :meth:`CcEnv.step` applies the action, then
integrates ``step_interval`` seconds of simulated time.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.obs as obs_mod
from repro.core.adaptive import retarget
from repro.core.proprate import PropRate
from repro.experiments.runner import (
    DEFAULT_PROP_DELAY,
    ExperimentHarness,
    FlowResult,
    FlowSpec,
    cellular_path_config,
)
from repro.sim.network import PathConfig
from repro.sim.queues import DEFAULT_BUFFER_PACKETS
from repro.tcp.application import Application
from repro.tcp.congestion.base import CongestionControl
from repro.tcp.congestion.policy import (
    PolicyDriven,
    WindowPolicyDriven,
    policy_adapter,
)
from repro.tcp.receiver import DEFAULT_TS_GRANULARITY
from repro.traces.trace import Trace

__all__ = ["CcEnv", "Observation", "OBS_FIELDS", "OBS_VERSION",
           "DEFAULT_STEP_INTERVAL"]

#: Observation schema version.  Bump on any change to
#: :data:`OBS_FIELDS` order, meaning, or units (see docs/env.md).
OBS_VERSION = 1

#: Field names of :meth:`Observation.vector`, in order.
OBS_FIELDS = (
    "t",                # simulated time (s)
    "rho",              # receive-rate estimate ρ̂ (bytes/s; NaN unknown)
    "tbuff",            # buffer-delay estimate t_buff (s; NaN unknown)
    "threshold",        # PropRate threshold T (s; NaN non-PropRate)
    "target",           # PropRate target t̄_buff (s; NaN non-PropRate)
    "srtt",             # smoothed RTT (s; NaN before first sample)
    "min_rtt",          # minimum RTT (s; NaN before first sample)
    "inflight",         # segments in flight
    "pacing_rate",      # pacing rate (bytes/s; NaN for window adapters)
    "cwnd",             # congestion window (segments; NaN for rate adapters)
    "delivered",        # cumulative delivered segments
    "lost",             # cumulative segments marked lost
    "retransmissions",  # cumulative retransmitted segments
    "rtos",             # cumulative retransmission timeouts
    "loss_episodes",    # cumulative fast-retransmit episodes
    "in_recovery",      # 1.0 while in fast recovery
    "app_limited",      # 1.0 when the application has no new data
)

#: Default action epoch: PropRate's threshold-feedback update interval,
#: the natural control granularity of the paper's state machine.
DEFAULT_STEP_INTERVAL = 0.25

#: Default reward weights (see docs/env.md; *not* part of the
#: determinism contract).
DELAY_WEIGHT = 25.0
LOSS_WEIGHT = 0.1


@dataclass(frozen=True)
class Observation:
    """One observation of the flow (schema :data:`OBS_VERSION`)."""

    t: float
    rho: float
    tbuff: float
    threshold: float
    target: float
    srtt: float
    min_rtt: float
    inflight: float
    pacing_rate: float
    cwnd: float
    delivered: float
    lost: float
    retransmissions: float
    rtos: float
    loss_episodes: float
    in_recovery: float
    app_limited: float

    version = OBS_VERSION
    fields = OBS_FIELDS

    def vector(self) -> List[float]:
        """The observation as a flat float vector (:data:`OBS_FIELDS`
        order)."""
        return [getattr(self, name) for name in OBS_FIELDS]

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in OBS_FIELDS}


class CcEnv:
    """A single-flow cellular-path experiment as an environment.

    Parameters mirror :func:`~repro.experiments.runner.run_single_flow`
    plus:

    inner_cc:
        Factory for a native algorithm to wrap as the policy adapter's
        brain (replay / knob-steering mode), or ``None`` for a purely
        externally driven rate (the policy must ``{"rate": …}``).
    window:
        Only meaningful with ``inner_cc=None``: use the cwnd-based
        adapter instead of the rate-based one.
    step_interval:
        Simulated seconds integrated per :meth:`step` (the action
        epoch).
    delay_weight / loss_weight:
        Reward shaping (see :meth:`step`); tune freely — the reward is
        advisory and not part of the determinism contract.

    Call :meth:`close` (or use :func:`repro.env.rollout`) when done so
    the tracer and profiler this env set up are released.
    """

    def __init__(
        self,
        downlink_trace: Trace,
        uplink_trace: Optional[Trace] = None,
        *,
        inner_cc: Optional[Callable[[], CongestionControl]] = None,
        window: bool = False,
        duration: float = 40.0,
        measure_start: float = 5.0,
        step_interval: float = DEFAULT_STEP_INTERVAL,
        buffer_packets: int = DEFAULT_BUFFER_PACKETS,
        prop_delay: float = DEFAULT_PROP_DELAY,
        aqm: str = "droptail",
        ts_granularity: float = DEFAULT_TS_GRANULARITY,
        application: Optional[Application] = None,
        total_segments: Optional[int] = None,
        delay_weight: float = DELAY_WEIGHT,
        loss_weight: float = LOSS_WEIGHT,
        audit: Any = None,
        telemetry: Optional[Any] = None,
        sampling: Optional[str] = None,
        profile: Optional[Any] = None,
        name: str = "",
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        if step_interval <= 0:
            raise ValueError("step_interval must be positive")
        self.path_config: PathConfig = cellular_path_config(
            downlink_trace,
            uplink_trace,
            buffer_packets=buffer_packets,
            prop_delay=prop_delay,
            aqm=aqm,
        )
        self.inner_cc = inner_cc
        self.window = window
        self.duration = duration
        self.measure_start = measure_start
        self.step_interval = step_interval
        self.ts_granularity = ts_granularity
        self.application = application
        self.total_segments = total_segments
        self.delay_weight = delay_weight
        self.loss_weight = loss_weight
        self.audit = audit
        self.name = name

        # The observers stay ambient from construction to close(), so
        # every episode's components bind them.
        self._observers = ExitStack()
        self._tracer, self._profiler = self._observers.enter_context(
            obs_mod.observing(telemetry, sampling, profile)
        )
        self._closed = False

        self._harness: Optional[ExperimentHarness] = None
        self.adapter: Any = None
        self._done = False
        self._episode = 0
        self._steps = 0
        self._last_delivered = 0
        self._last_lost = 0
        self._last_delivered_t = 0.0

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> Observation:
        """Build a fresh simulation and return the initial observation."""
        if self._closed:
            raise RuntimeError("env is closed")
        if self._harness is not None:
            # The episode this reset abandons is freed now, not at the
            # next full garbage collection.
            self._harness.close()
        inner = self.inner_cc() if self.inner_cc is not None else None
        if inner is not None:
            self.adapter = policy_adapter(inner)
        elif self.window:
            self.adapter = WindowPolicyDriven(None)
        else:
            self.adapter = PolicyDriven(None)
        adapter = self.adapter
        self._harness = ExperimentHarness(
            self.path_config,
            [
                FlowSpec(
                    cc_factory=lambda: adapter,
                    name=self.name,
                    total_segments=self.total_segments,
                    application=self.application,
                )
            ],
            self.duration,
            measure_start=self.measure_start,
            ts_granularity=self.ts_granularity,
            audit=self.audit,
            tracer=self._tracer,
            profiler=self._profiler,
        )
        self._done = False
        self._episode += 1
        self._steps = 0
        self._last_delivered = 0
        self._last_lost = 0
        self._last_delivered_t = 0.0
        self._harness.advance(0.0)
        return self._observe()

    def close(self) -> None:
        """Close the current episode's simulation and release the tracer
        and profiler (those this env set up)."""
        if self._closed:
            return
        self._closed = True
        if self._harness is not None:
            self._harness.close()
        self._observers.close()

    # -- the step loop --------------------------------------------------
    def step(
        self, action: Optional[Dict[str, Any]] = None,
    ) -> Tuple[Observation, float, bool, Dict[str, Any]]:
        """Apply ``action``, integrate one epoch, observe.

        Returns ``(obs, reward, done, info)``.  The reward is
        ``delivered_megabits − delay_weight·t_buff −
        loss_weight·new_losses`` over the epoch — a throughput-vs-delay
        utility in the spirit of the paper's Figure-7 frontier.
        ``info`` carries the raw per-epoch deltas.
        """
        harness = self._require_harness()
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        self.apply_action(action)
        before = self._observe()
        harness.advance(harness.now + self.step_interval)
        obs = self._observe()
        self._steps += 1
        self._done = harness.now >= self.duration - 1e-12

        delivered_delta = obs.delivered - before.delivered
        lost_delta = obs.lost - before.lost
        delivered_bits = (
            delivered_delta * harness.sender(0).packet_bytes * 8.0
        )
        tbuff_penalty = 0.0 if math.isnan(obs.tbuff) else obs.tbuff
        reward = (
            delivered_bits / 1e6
            - self.delay_weight * tbuff_penalty
            - self.loss_weight * lost_delta
        )
        info = {
            "t": obs.t,
            "delivered_delta": delivered_delta,
            "lost_delta": lost_delta,
            "rto_delta": obs.rtos - before.rtos,
            "episode": self._episode,
            "step": self._steps,
        }
        if self._tracer is not None:
            self._tracer.emit(
                obs_mod.ENV_STEP,
                obs.t,
                flow=0,
                step=self._steps,
                action=action,
                reward=reward,
                obs=obs.as_dict(),
            )
        return obs, reward, self._done, info

    def apply_action(self, action: Optional[Dict[str, Any]]) -> None:
        """Apply an action dict (see docs/env.md for the vocabulary)."""
        if not action:
            return
        adapter = self.adapter
        unknown = set(action) - {
            "rate", "cwnd", "target", "threshold", "kf", "kd", "probe",
        }
        if unknown:
            raise ValueError(f"unknown action keys: {sorted(unknown)}")
        if "rate" in action:
            if not isinstance(adapter, PolicyDriven):
                raise ValueError("'rate' needs the rate-based adapter")
            adapter.set_rate(action["rate"])
        if "cwnd" in action:
            if not isinstance(adapter, WindowPolicyDriven):
                raise ValueError("'cwnd' needs the window-based adapter")
            adapter.set_cwnd(action["cwnd"])
        if "kf" in action or "kd" in action:
            if not isinstance(adapter, PolicyDriven):
                raise ValueError("gain overrides need the rate-based adapter")
            adapter.set_gains(action.get("kf"), action.get("kd"))
        if "target" in action:
            inner = self._proprate_inner("'target'")
            new_target = action["target"]
            if new_target <= 0:
                raise ValueError("target must be positive")
            retarget(inner, new_target)
        if "threshold" in action:
            inner = self._proprate_inner("'threshold'")
            feedback = inner.feedback
            feedback.threshold = min(
                max(action["threshold"], feedback.min_threshold),
                feedback.max_threshold,
            )
        if "probe" in action:
            if not isinstance(adapter, PolicyDriven):
                raise ValueError("'probe' needs the rate-based adapter")
            adapter.request_probe(int(action["probe"]))

    def _proprate_inner(self, what: str) -> PropRate:
        inner = getattr(self.adapter, "inner", None)
        if not isinstance(inner, PropRate):
            raise ValueError(f"{what} needs a PropRate inner algorithm")
        return inner

    # -- observation ----------------------------------------------------
    def _require_harness(self) -> ExperimentHarness:
        if self._harness is None:
            raise RuntimeError("call reset() first")
        return self._harness

    def _observe(self) -> Observation:
        harness = self._require_harness()
        sender = harness.sender(0)
        adapter = self.adapter
        inner = getattr(adapter, "inner", None)
        now = harness.now

        rho = getattr(inner, "rho", None)
        if rho is None:
            # Fallback ρ̂: delivered rate since the last delivery
            # progress, NaN until anything has been delivered.
            delivered = sender.delivered_total
            if delivered > self._last_delivered and now > self._last_delivered_t:
                rho = (
                    (delivered - self._last_delivered)
                    * sender.packet_bytes
                    / (now - self._last_delivered_t)
                )
                self._last_delivered = delivered
                self._last_delivered_t = now
            else:
                rho = float("nan") if delivered == 0 else 0.0

        delay_estimator = getattr(inner, "delay_estimator", None)
        tbuff = getattr(delay_estimator, "tbuff_smooth", None)
        if tbuff is None:
            srtt = sender.srtt
            min_rtt = sender.min_rtt
            if srtt is not None and math.isfinite(min_rtt):
                tbuff = max(0.0, srtt - min_rtt)

        feedback = getattr(inner, "feedback", None)
        threshold = getattr(feedback, "threshold", None)
        target = getattr(inner, "target_buffer_delay", None)

        produced = sender.application.produced(now)
        app_limited = produced is not None and sender.next_seq >= produced

        def _f(value: Optional[float]) -> float:
            if value is None:
                return float("nan")
            value = float(value)
            return value if math.isfinite(value) else float("nan")

        return Observation(
            t=now,
            rho=_f(rho),
            tbuff=_f(tbuff),
            threshold=_f(threshold),
            target=_f(target),
            srtt=_f(sender.srtt),
            min_rtt=_f(sender.min_rtt),
            inflight=float(sender.inflight),
            pacing_rate=_f(getattr(adapter, "pacing_rate", None)),
            cwnd=_f(getattr(adapter, "cwnd", None)),
            delivered=float(sender.delivered_total),
            lost=float(sender.lost_total),
            retransmissions=float(sender.retransmissions),
            rtos=float(sender.rto_count),
            loss_episodes=float(adapter.congestion_events),
            in_recovery=1.0 if sender.in_recovery else 0.0,
            app_limited=1.0 if app_limited else 0.0,
        )

    # -- results --------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def now(self) -> float:
        return self._require_harness().now

    def result(self) -> FlowResult:
        """Finalize the episode and reduce it to a
        :class:`~repro.experiments.runner.FlowResult` — the same
        reduction (and determinism contract) as
        :func:`~repro.experiments.runner.run_single_flow`."""
        harness = self._require_harness()
        result = harness.finalize()[0]
        self._done = True
        if self._tracer is not None:
            self._tracer.emit(
                obs_mod.ENV_EPISODE,
                harness.now,
                flow=0,
                episode=self._episode,
                steps=self._steps,
                obs_version=OBS_VERSION,
                throughput=result.throughput,
                delay_mean=result.delay.mean,
            )
        return result
