"""PropRate congestion control (paper §3–4, Figure 5(b)).

PropRate replaces loss-based congestion signalling with buffer-delay-based
detection, and the congestion window with direct rate control: the sending
rate oscillates around the estimated receive rate ρ, proportional to it in
each state (hence the name):

* **Slow Start** — burst 10 packets to obtain an initial ρ estimate from
  the receiver timestamps; if all arrivals share one timestamp tick the
  bottleneck is faster than measurable, so double the burst and repeat.
  Once *an* estimate exists it may still be a sliver of the link rate (a
  burst straddling a single tick boundary measures only its tail), so
  growth continues — paced at 2·ρ̂ rather than as ever-larger
  instantaneous bursts — until the estimate stops improving or a queue
  starts to form, then the regulated Fill/Drain oscillation takes over.
  (The paper's "repeated until a rate estimate is obtained" leaves the
  mechanism underspecified; pacing the growth bounds the queue the
  discovery phase can build in a shallow buffer.)
* **Buffer Fill** — send at σ_f = k_f·ρ (> ρ), filling the bottleneck
  buffer; switch to Drain when the estimated buffer delay exceeds T.
* **Buffer Drain** — send at σ_d = k_d·ρ (< ρ); switch back to Fill when
  the buffer delay falls below T.  If the state persists beyond
  RTT·ρ transmitted packets, something is off — enter Monitor.
* **Monitor** — send conservatively at σ_m = σ_d/2 while a fresh burst of
  10 packets re-measures ρ and the delay baseline; return to Fill if the
  network recovered (fresh ρ ≥ old ρ), else back to Drain.
* A retransmission timeout returns to Slow Start, mirroring conventional
  TCP (Figure 5).

The switching threshold T starts at the target average buffer delay
t̄_buff (§3.1) and is steered online by the negative-feedback loop of
§3.2 so the *achieved* average converges to the target.  k_f and k_d come
from the closed forms of Eqs. 7–8, in the buffer-full or buffer-emptied
regime depending on how aggressive the target is relative to the latency
budget L_max.

Packet losses need no special handling (§4.3): retransmissions simply
share the paced stream.  As a safety valve against measurement blackouts
(e.g. total outages, where ACKs stop and ρ cannot decay), the in-flight
data is capped at a small multiple of the target operating point — the
"window-capped" qualifier in the paper's Table 3.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Optional

from repro.core.estimators import BufferDelayEstimator, ReceiveRateEstimator
from repro.core.feedback import ThresholdFeedbackLoop
from repro.core.model import (
    DEFAULT_LMAX_HEADROOM,
    PropRateParams,
    params_for_threshold,
)
from repro.obs import CC_EPOCH, CC_ESTIMATOR, CC_STATE, current_tracer
from repro.tcp.congestion.base import AckSample, RateCongestionControl

#: Initial (and Monitor) probe burst size; the paper picks 10 following
#: the IW=10 argument and notes base-station buffers of 2,000+ packets
#: absorb it easily.
PROBE_BURST = 10

#: Upper bound on Slow-Start burst doubling (safety net only).
MAX_BURST = 1024

#: Decay time-constant of the held ρ estimate while deliberately sending
#: below capacity (Drain/Monitor).  Short self-limited phases (a normal
#: drain is a few hundred ms) keep ρ essentially intact, but a flow
#: pinned in Drain for many seconds by cross traffic must converge to
#: its *measured* share instead of ratcheting upward on every transient.
RHO_HOLD_TAU = 3.0


class PropRateState(enum.Enum):
    SLOW_START = "slow_start"
    FILL = "fill"
    DRAIN = "drain"
    MONITOR = "monitor"


class PropRate(RateCongestionControl):
    """The PropRate congestion-control module.

    Parameters
    ----------
    target_buffer_delay:
        t̄_buff — the target average bottleneck-buffer delay in seconds.
        The paper's configurations: PR(L)=0.020, PR(M)=0.040, PR(H)=0.080.
    lmax:
        Application latency budget L_max (seconds).  Defaults to the base
        RTT plus :data:`~repro.core.model.DEFAULT_LMAX_HEADROOM`, which
        reproduces the paper's regime split.
    enable_feedback:
        Run the §3.2 negative-feedback loop (Figure 9 compares on/off).
    rate_estimator / delay_estimator:
        Zero-argument factories of the ρ and t_buff estimators, called
        once per controller (docs/api.md).  ``MaxFilterRateEstimator``
        is the §2 ablation; ``partial(BufferDelayEstimator, window=W)``
        sets how far back the RD_min baseline looks.
    probe_burst:
        Slow-Start / Monitor probe burst size (the paper picks 10,
        following the IW=10 argument; ablatable).
    """

    name = "PropRate"
    sending_regulation = "Rate-based (+ window-capped)"
    congestion_trigger = "Buffer Delay"
    # on_tick is the in-flight safety cap: it can only zero the pacing
    # rate, so idle ticks (rate already zero) are unobservable.
    idle_tick_safe = True

    def __init__(
        self,
        target_buffer_delay: float = 0.040,
        lmax: Optional[float] = None,
        enable_feedback: bool = True,
        rate_estimator: Callable[[], ReceiveRateEstimator] = ReceiveRateEstimator,
        delay_estimator: Callable[[], BufferDelayEstimator] = BufferDelayEstimator,
        probe_burst: int = PROBE_BURST,
    ) -> None:
        super().__init__()
        if target_buffer_delay <= 0:
            raise ValueError("target buffer delay must be positive")
        self.target_buffer_delay = target_buffer_delay
        self.lmax = lmax
        self.state = PropRateState.SLOW_START
        self.rate_estimator = rate_estimator()
        if probe_burst < 2:
            raise ValueError("probe_burst must be at least 2")
        self.probe_burst = probe_burst
        self.delay_estimator = delay_estimator()
        # The NFL corrects bias around the derived operating point; the
        # clamp band keeps it from replacing the model outright (and from
        # pushing T below the receiver's timestamp quantisation noise).
        # The band is asymmetric: measurement lag makes the achieved
        # delay overshoot the model, so T mostly needs room *below* the
        # target; raising it far above would let a startup transient
        # (queue not yet formed, achieved ~ 0) wind T up and destabilise
        # the whole loop.
        self.feedback = ThresholdFeedbackLoop(
            target=target_buffer_delay,
            min_threshold=max(0.005, target_buffer_delay / 2.0),
            max_threshold=min(1.0, target_buffer_delay * 1.5),
            min_update_interval=0.25,
            enabled=enable_feedback,
        )
        self._nfl_started_at: Optional[float] = None
        self.params: Optional[PropRateParams] = None
        # Memos (DESIGN.md §10): the inputs ``params`` was derived from
        # and the inputs of the in-flight cap, compared as exact floats.
        self._params_key: Optional[tuple] = None
        self._cap_key: Optional[tuple] = None
        self._cap_packets = 0

        self._burst_size = PROBE_BURST
        self._burst_target: Optional[int] = None
        self._ss_prev_estimate: Optional[float] = None
        self._ss_check_time: Optional[float] = None
        self._rho_hold: Optional[float] = None
        self._rho_hold_stamp = 0.0
        self._drain_sent = 0
        self._drain_entry_tbuff: Optional[float] = None
        self._monitor_rho_before: Optional[float] = None
        self._last_delivered = 0
        self._window_acked = 0
        self.state_transitions = 0
        self.monitor_entries = 0
        # Telemetry: captured at construction so the hot path pays a
        # single None check when tracing is off.
        self._tracer = current_tracer()
        self._state_entered = 0.0

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """The current switching threshold T (NFL-adjusted)."""
        return self.feedback.threshold

    @property
    def rho(self) -> Optional[float]:
        """The receive-rate estimate used for pacing (bytes/second).

        While the buffer is kept non-empty (Fill), the measured receive
        rate *is* the bottleneck rate and is adopted directly.  While
        deliberately sending below capacity (Drain/Monitor), the measured
        rate only reflects our own sending rate, so the estimate is held
        and may only be revised upward; downward corrections happen on
        the next Fill.  Without the hold, every drain phase would decay
        ρ toward σ_d = k_d·ρ and the emptied regime would spiral down.
        """
        return self._rho_hold

    def _base_rtt(self) -> Optional[float]:
        host = self.host
        if host is None:
            return None
        rtt = host.min_rtt
        if rtt == float("inf"):
            rtt = host.srtt
        return rtt

    def _effective_lmax(self, rtt: float) -> float:
        if self.lmax is not None:
            return self.lmax
        # The default budget reproduces the paper's PR(L)/PR(M)/PR(H)
        # regime split (80 ms of headroom), but must scale up for larger
        # targets: §3.1 requires t̄_buff <= L_max − RTT, and the threshold
        # is capped by the headroom.
        headroom = max(DEFAULT_LMAX_HEADROOM, 1.5 * self.target_buffer_delay)
        return rtt + headroom

    def _derive(self) -> Optional[PropRateParams]:
        rtt = self._base_rtt()
        if rtt is None or rtt <= 0:
            return None
        # The operating point moves about once per NFL epoch, not once
        # per ACK: re-derive only when one of its four inputs differs.
        key = (self.feedback.threshold, rtt, self.target_buffer_delay,
               self.lmax)
        if key != self._params_key:
            lmax = self._effective_lmax(rtt)
            if lmax <= rtt:
                lmax = rtt + DEFAULT_LMAX_HEADROOM
            threshold = min(self.feedback.threshold, lmax - rtt)
            threshold = max(threshold, 1e-4)
            self.params = params_for_threshold(
                threshold, rtt, min(self.target_buffer_delay, lmax - rtt),
                lmax
            )
            self._params_key = key
        return self.params

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_connection_start(self) -> None:
        tr = self._tracer
        host = self.host
        if tr is not None and host is not None:
            flow = getattr(host, "flow_id", None)
            self.feedback.tracer = tr
            self.feedback.flow = flow
            self.rate_estimator.on_epoch = (
                lambda what: tr.emit(CC_EPOCH, host.now, flow=flow,
                                     estimator="rate", what=what))
            self._state_entered = host.now
        self._enter_slow_start()

    def unbind(self) -> None:
        # The epoch hook set above captures the host.
        super().unbind()
        self.rate_estimator.on_epoch = None

    def _trace_state(self, prev: PropRateState) -> None:
        """Emit a ``cc.state`` event and record the dwell of ``prev``."""
        tr = self._tracer
        if tr is None:
            return
        host = self.host
        now = host.now if host is not None else 0.0
        flow = getattr(host, "flow_id", None)
        dwell = now - self._state_entered
        if dwell > 0:
            tr.metrics.histogram(
                f"flow{flow}.cc.dwell.{prev.value}").observe(dwell)
        self._state_entered = now
        tr.emit(CC_STATE, now, flow=flow, state=self.state.value,
                prev=prev.value, rho=self._rho_hold,
                tbuff=self.delay_estimator.tbuff_smooth,
                threshold=self.feedback.threshold)

    def telemetry_close(self, now: float) -> None:
        """Record the final state's dwell at run end (runner hook)."""
        tr = self._tracer
        if tr is None:
            return
        flow = getattr(self.host, "flow_id", None)
        dwell = now - self._state_entered
        if dwell > 0:
            tr.metrics.histogram(
                f"flow{flow}.cc.dwell.{self.state.value}").observe(dwell)
            self._state_entered = now

    def _enter_slow_start(self) -> None:
        prev = self.state
        self.state = PropRateState.SLOW_START
        self.pacing_rate = 0.0
        self.round_mode = "down"
        self._burst_size = self.probe_burst
        self._burst_target = self._last_delivered + self._burst_size
        self._ss_prev_estimate = None
        self._ss_check_time = None
        self._rho_hold = None
        self.rate_estimator.reset()
        self.feedback.reset()
        self.request_burst(self._burst_size)
        self._trace_state(prev)

    def on_rto(self) -> None:
        """Timeout ⇒ back to Slow Start (Figure 5(b))."""
        self._enter_slow_start()

    def on_congestion(self, sample: AckSample) -> None:
        """Packet loss needs no special congestion action (paper §4.3):
        the sender retransmits within the paced stream.

        The one exception is Slow Start's burst-doubling loop: a loss
        there means a probe burst overflowed a shallow bottleneck
        buffer, so doubling further is pointless — adopt the estimate
        gathered so far and start regulating."""
        if self.state is PropRateState.SLOW_START:
            if self.rate_estimator.has_estimate and self.params is not None:
                self._enter_fill()

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def _enter_fill(self) -> None:
        prev = self.state
        self.state = PropRateState.FILL
        self.round_mode = "up"
        self.state_transitions += 1
        self._trace_state(prev)

    def _enter_drain(self) -> None:
        prev = self.state
        self.state = PropRateState.DRAIN
        self.round_mode = "down"
        self._drain_sent = 0
        self._drain_entry_tbuff = self.delay_estimator.tbuff_smooth
        self.state_transitions += 1
        self._trace_state(prev)

    def _enter_monitor(self) -> None:
        prev = self.state
        self.state = PropRateState.MONITOR
        self.round_mode = "down"
        self.monitor_entries += 1
        self.state_transitions += 1
        self._monitor_rho_before = self._rho_hold
        if self.params is not None and self._monitor_rho_before is not None:
            # σ_m = σ_d / 2: conservative while the probe re-measures ρ.
            self.pacing_rate = 0.5 * self.params.kd * self._monitor_rho_before
        self._burst_size = self.probe_burst
        self._burst_target = self._last_delivered + self._burst_size
        # Measure the receive rate afresh, EWMA included, so the probe
        # burst's ρ stands alone; _monitor_rho_before keeps the old one
        # for the comparison.
        self.rate_estimator.reset()
        self.request_burst(self._burst_size)
        self._trace_state(prev)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_packet_sent(self, seq: int, now: float, retransmit: bool) -> None:
        if self.state is PropRateState.DRAIN:
            self._drain_sent += 1

    def on_ack(self, sample: AckSample) -> None:
        host = self.host
        assert host is not None
        self._last_delivered = sample.delivered_total

        # Feed the sender-side estimators (paper Figure 6).
        self.rate_estimator.on_ack(
            sample.receiver_ts, sample.delivered_total * host.packet_bytes
        )
        measured = self.rate_estimator.rate
        if measured is not None:
            if (
                self.state in (PropRateState.FILL, PropRateState.SLOW_START)
                or self._rho_hold is None
            ):
                self._rho_hold = measured
            else:
                # Self-limited (Drain/Monitor): hold ρ, decaying slowly
                # toward the measured rate (see RHO_HOLD_TAU).
                dt = max(0.0, sample.now - self._rho_hold_stamp)
                decayed = self._rho_hold * math.exp(-dt / RHO_HOLD_TAU)
                self._rho_hold = max(measured, decayed)
        self._rho_hold_stamp = sample.now
        if sample.one_way_delay is not None:
            self.delay_estimator.on_ack(sample.now, sample.one_way_delay)

        params = self._derive()

        if self.state is PropRateState.SLOW_START:
            self._slow_start_step(sample, params)
        elif self.state is PropRateState.MONITOR:
            self._monitor_step(sample)
        else:
            self._fill_drain_step(sample)

        self._feedback_step(sample)
        self._apply_rate()

    def _slow_start_step(
        self, sample: AckSample, params: Optional[PropRateParams]
    ) -> None:
        burst_done = (
            self._burst_target is not None
            and sample.delivered_total >= self._burst_target
        )
        if not self.rate_estimator.has_estimate:
            if burst_done:
                # Whole burst landed in one receiver tick: the bottleneck
                # can take more — double the burst (paper §4).
                if self._burst_size < MAX_BURST:
                    self._burst_size *= 2
                self._burst_target = sample.delivered_total + self._burst_size
                self.request_burst(self._burst_size)
            return
        if params is None:
            return
        # An estimate exists, but a burst that merely straddled one
        # receiver tick boundary measures only a sliver of the link
        # rate — and the Fill state's k_f·ρ growth recovers from an
        # under-estimate very slowly on fat pipes.  Grow *paced* at 2·ρ̂
        # until the estimate stops improving, or until a queue starts to
        # form (the delay guard bounds the overshoot a shallow buffer
        # sees to roughly one feedback lag of 2x traffic).
        estimate = self.rate_estimator.rate or 0.0
        self.pacing_rate = 2.0 * estimate
        self.round_mode = "up"

        tbuff = self.delay_estimator.tbuff_smooth
        if tbuff is not None and tbuff > params.threshold:
            self._enter_fill()
            return
        # Growth checkpoints are time-based: the windowed/EWMA estimate
        # needs a couple of RTTs of 2x pacing before a genuine capacity
        # gap shows up as >25% growth; checking sooner would mistake
        # estimator lag for a plateau and exit at a sliver of the link
        # rate.
        host = self.host
        srtt = host.srtt if host is not None and host.srtt else 0.05
        interval = max(0.100, 2.0 * srtt)
        if self._ss_check_time is None:
            self._ss_check_time = sample.now + interval
            self._ss_prev_estimate = estimate
            return
        if sample.now < self._ss_check_time:
            return
        prev = self._ss_prev_estimate
        self._ss_prev_estimate = estimate
        self._ss_check_time = sample.now + interval
        if prev is not None and estimate <= 1.25 * prev:
            self._enter_fill()

    def _fill_drain_step(self, sample: AckSample) -> None:
        # Switch on the smoothed estimate: the receiver's 10 ms timestamp
        # granularity puts +/-granularity noise on each raw sample, which
        # would thrash the states when T is small.
        tbuff = self.delay_estimator.tbuff_smooth
        if tbuff is None:
            return
        threshold = self.params.threshold if self.params else self.threshold
        if self.state is PropRateState.FILL:
            if tbuff > threshold:
                self._enter_drain()
        elif self.state is PropRateState.DRAIN:
            if tbuff < threshold:
                self._enter_fill()
            elif self._drain_sent >= self._drain_packet_cap():
                # The cap is reached: decide whether draining is actually
                # working.  A deep overshoot legitimately takes several
                # cap-windows to drain; Monitor is for the case where the
                # buffer delay is NOT falling (wrong ρ or a stale
                # congestion signal, paper §4.1).
                entry = self._drain_entry_tbuff
                if entry is not None and tbuff < 0.8 * entry:
                    self._drain_sent = 0
                    self._drain_entry_tbuff = tbuff
                else:
                    self._enter_monitor()

    def _monitor_step(self, sample: AckSample) -> None:
        if self.rate_estimator.has_estimate:
            fresh = self.rate_estimator.rate or 0.0
            before = self._monitor_rho_before
            if before is None or fresh >= 0.9 * before:
                # Network is actually fine ("update congestion
                # information"): adopt the fresh rate and resume filling.
                # The RD_min baseline is deliberately NOT rebased here —
                # Monitor often fires with a standing queue, and
                # re-seeding the baseline then would make every
                # subsequent buffer-delay estimate read near zero; the
                # sliding window ages the baseline out on its own.
                self._rho_hold = max(fresh, before or 0.0)
                self._enter_fill()
            else:
                # The network really did slow down: adopt the fresh,
                # lower measurement and keep draining.
                self._rho_hold = fresh
                self._enter_drain()
        elif (
            self._burst_target is not None
            and sample.delivered_total >= self._burst_target
        ):
            # The probe burst collapsed into one receiver tick again.
            if self._burst_size < MAX_BURST:
                self._burst_size *= 2
            self._burst_target = sample.delivered_total + self._burst_size
            self.request_burst(self._burst_size)

    # ------------------------------------------------------------------
    # Feedback and pacing
    # ------------------------------------------------------------------
    def _bdp_packets(self) -> int:
        host = self.host
        rtt = self._base_rtt()
        rho = self._rho_hold
        if host is None or rtt is None or rho is None:
            return PROBE_BURST
        return max(PROBE_BURST, int(rtt * rho / host.packet_bytes))

    def _drain_packet_cap(self) -> int:
        """Packets transmitted in Drain before forcing Monitor.

        The paper caps the Drain state at RTT·ρ packets (§4.1); taken
        literally that is *less* than one healthy drain phase transmits
        (a symmetric cycle spends ≈ 2(T+RTT) per state at σ_d = k_d·ρ),
        so it would force Monitor every cycle.  The cap used here is a
        couple of healthy drain phases' worth of packets — it still
        fires quickly when draining makes no progress, without
        disturbing normal oscillation.
        """
        host = self.host
        rtt = self._base_rtt()
        rho = self._rho_hold
        if host is None or rtt is None or rho is None or self.params is None:
            return 10 * PROBE_BURST
        phase = 2.0 * (self.params.threshold + rtt)
        cap = 2.0 * phase * self.params.kd * rho / host.packet_bytes
        return max(4 * PROBE_BURST, int(cap))

    #: Settling time before the NFL may move T: the inner loop needs a
    #: few fill/drain cycles before the achieved delay reflects T at all.
    NFL_WARMUP = 1.5

    def _feedback_step(self, sample: AckSample) -> None:
        if self.state not in (PropRateState.FILL, PropRateState.DRAIN):
            return  # only steady-state operation reflects the threshold
        if self._nfl_started_at is None:
            self._nfl_started_at = sample.now
        self._window_acked += sample.newly_acked + sample.newly_sacked
        if self._window_acked < self._bdp_packets():
            return
        self._window_acked = 0
        tbuff = self.delay_estimator.tbuff_smooth
        if tbuff is None:
            return
        tr = self._tracer
        if tr is not None:
            tr.emit(CC_ESTIMATOR, sample.now,
                    flow=getattr(self.host, "flow_id", None),
                    rho=self._rho_hold, tbuff=tbuff,
                    threshold=self.feedback.threshold,
                    t_actual=self.feedback.t_actual,
                    state=self.state.value)
        if sample.now - self._nfl_started_at < self.NFL_WARMUP:
            return
        self.feedback.on_window_sample(
            tbuff,
            state_is_fill=self.state is PropRateState.FILL,
            now=sample.now,
        )

    def _apply_rate(self) -> None:
        if self.state is PropRateState.SLOW_START:
            # Discovery: bursts only until a first estimate exists, then
            # paced exponential growth at 2·ρ̂ (set by _slow_start_step).
            estimate = self.rate_estimator.rate
            self.pacing_rate = 2.0 * estimate if estimate else 0.0
            return
        rho = self._rho_hold
        if rho is None or self.params is None:
            return
        if self.state is PropRateState.FILL:
            self.pacing_rate = self.params.kf * rho
        elif self.state is PropRateState.DRAIN:
            self.pacing_rate = self.params.kd * rho
        elif self.state is PropRateState.MONITOR:
            before = self._monitor_rho_before or rho
            self.pacing_rate = 0.5 * self.params.kd * before

    # ------------------------------------------------------------------
    # Safety valve: cap in-flight data (Table 3 "window-capped")
    # ------------------------------------------------------------------
    def on_tick(self, now: float) -> None:
        host = self.host
        if host is None or self.params is None:
            return
        rho = self._rho_hold
        rtt = self._base_rtt()
        if rho is None or rtt is None:
            return
        # The cap must scale with the *smoothed* RTT, not the propagation
        # minimum: on a congested uplink (Figure 14) ACKs lag by whole
        # seconds, so un-ACKed data legitimately exceeds min-RTT BDPs
        # while the one-way data path stays healthy.
        srtt = host.srtt
        # Every input below moves only on an ACK or an RTO; between them
        # the cap of the previous tick stands.
        key = (rho, rtt, srtt, self.params, self.target_buffer_delay)
        if key != self._cap_key:
            rtt_for_cap = max(rtt, srtt) if srtt is not None else rtt
            cap_seconds = rtt_for_cap + 4.0 * max(
                self.params.threshold, self.target_buffer_delay
            )
            self._cap_packets = max(
                4 * PROBE_BURST, int(cap_seconds * rho / host.packet_bytes)
            )
            self._cap_key = key
        if host.inflight >= self._cap_packets:
            self.pacing_rate = 0.0
