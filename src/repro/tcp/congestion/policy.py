"""External-policy congestion-control adapters.

These adapters let a policy that lives *outside* the ACK path — a
hand-written controller, the :mod:`repro.env` step/observe/act loop, or
eventually a learned model — drive the sender through exactly the same
code path native algorithms use.  Two variants mirror the sender's two
regulation mechanisms (paper Figure 5):

* :class:`PolicyDriven` — rate-regulated: the policy sets a pacing rate
  (and may request probe bursts), or wraps a native *rate-based*
  algorithm as its ``inner`` brain;
* :class:`WindowPolicyDriven` — cwnd-regulated: the policy sets a
  congestion window, or wraps a native *cwnd-based* algorithm.

With an ``inner`` algorithm attached, every sender hook is forwarded to
it and its control outputs (``pacing_rate``/``round_mode``/burst
requests, or ``cwnd``) are mirrored onto the adapter after each hook
returns — before the sender reads them.  The adapter is then a
transparent shim: a run driven through it is bit-identical to the
native run (the ``check_determinism.py --env`` gate).  External actions
(:meth:`set_rate`, :meth:`set_gains`, :meth:`set_cwnd`) layer on top of
or replace the inner outputs.

Both adapters also count forwarded congestion events and timeouts
(:attr:`congestion_events`, :attr:`rto_events`) so epoch-granularity
policies can detect loss episodes between observations without hooking
the ACK path themselves.  The forwarding and the counters are written
once, in :class:`_Forwarding`; each adapter keeps only its ``_sync``
and its own actions.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.tcp.congestion.base import (
    AckSample,
    CongestionControl,
    HostView,
    RateCongestionControl,
    WindowCongestionControl,
)

__all__ = ["PolicyDriven", "WindowPolicyDriven", "policy_adapter"]


class _Forwarding(CongestionControl):
    """The sender hooks both adapters forward to their ``inner``
    algorithm, each followed by ``_sync`` — plus the loss-episode and
    timeout counters epoch policies read."""

    inner: Optional[Any]

    def __init__(self) -> None:
        super().__init__()
        #: Fast-retransmit episodes / timeouts forwarded so far, and the
        #: host clock of the most recent of each (for epoch policies).
        self.congestion_events = 0
        self.rto_events = 0
        self.last_congestion_at: Optional[float] = None
        self.last_rto_at: Optional[float] = None

    def _sync(self) -> None:
        """Mirror the inner algorithm's outputs onto the adapter."""
        raise NotImplementedError

    def bind(self, host: HostView) -> None:
        super().bind(host)
        if self.inner is not None:
            self.inner.bind(host)

    def on_connection_start(self) -> None:
        if self.inner is not None:
            self.inner.on_connection_start()
        self._sync()

    def on_ack(self, sample: AckSample) -> None:
        if self.inner is not None:
            self.inner.on_ack(sample)
        self._sync()

    def on_congestion(self, sample: AckSample) -> None:
        self.congestion_events += 1
        self.last_congestion_at = sample.now
        if self.inner is not None:
            self.inner.on_congestion(sample)
        self._sync()

    def on_recovery_exit(self, sample: AckSample) -> None:
        if self.inner is not None:
            self.inner.on_recovery_exit(sample)
        self._sync()

    def on_rto(self) -> None:
        self.rto_events += 1
        if self.host is not None:
            self.last_rto_at = self.host.now
        if self.inner is not None:
            self.inner.on_rto()
        self._sync()

    def on_packet_sent(self, seq: int, now: float, retransmit: bool) -> None:
        if self.inner is not None:
            self.inner.on_packet_sent(seq, now, retransmit)
            self._sync()

    def telemetry_close(self, now: float) -> None:
        close = getattr(self.inner, "telemetry_close", None)
        if close is not None:
            close(now)


class PolicyDriven(_Forwarding, RateCongestionControl):
    """Rate-based adapter: an external policy (or wrapped native
    algorithm) owns the pacing rate."""

    name = "PolicyDriven"
    congestion_trigger = "External policy"

    def __init__(self, inner: Optional[CongestionControl] = None) -> None:
        super().__init__()
        if inner is not None and not isinstance(inner, RateCongestionControl):
            raise TypeError(
                "PolicyDriven wraps rate-based algorithms; "
                "use WindowPolicyDriven for cwnd-based ones"
            )
        self.inner = inner
        self._rate_override: Optional[float] = None
        self._kf_override: Optional[float] = None
        self._kd_override: Optional[float] = None

    # -- sender introspection -------------------------------------------
    @property
    def idle_tick_safe(self) -> bool:  # type: ignore[override]
        # Reproduce the sender's native tick-passivity decision for the
        # wrapped algorithm: an inner that never overrides ``on_tick``
        # is passive regardless of its own flag.  Without an inner the
        # adapter's tick does nothing, so suspension is always safe.
        inner = self.inner
        if inner is None:
            return True
        return (
            type(inner).on_tick is RateCongestionControl.on_tick
            or inner.idle_tick_safe
        )

    # -- external actions -----------------------------------------------
    def set_rate(self, rate: Optional[float]) -> None:
        """Pin the pacing rate (bytes/s); ``None`` returns control to
        the inner algorithm (or to zero without one)."""
        if rate is not None and rate < 0:
            raise ValueError("pacing rate must be non-negative")
        self._rate_override = rate
        self._sync()
        self._wake_host()

    def set_gains(self, kf: Optional[float] = None,
                  kd: Optional[float] = None) -> None:
        """Override the wrapped PropRate's fill/drain gains.

        The overrides rescale the inner algorithm's pacing output in
        whichever state the respective gain governs (Fill for ``k_f``;
        Drain and Monitor for ``k_d``), leaving the state machine and
        threshold feedback untouched.  ``None`` clears an override.
        No-op for inners without PropRate's ``params``/``state``.
        """
        if (kf is not None and kf <= 0) or (kd is not None and kd <= 0):
            raise ValueError("gain overrides must be positive")
        self._kf_override = kf
        self._kd_override = kd
        self._sync()
        self._wake_host()

    def request_probe(self, packets: int) -> None:
        """External probe burst (the policy face of ``request_burst``)."""
        self.request_burst(packets)
        self._wake_host()

    def _wake_host(self) -> None:
        # A suspended sender resumes only on ACK or RTO; an external
        # action is neither, so it must wake the pacing tick itself
        # (phase-exact — see TcpSender.wake).
        wake = getattr(self.host, "wake", None)
        if wake is not None:
            wake()

    # -- inner mirroring ------------------------------------------------
    def _gain_scale(self, inner: RateCongestionControl) -> float:
        if self._kf_override is None and self._kd_override is None:
            return 1.0
        params = getattr(inner, "params", None)
        state = getattr(inner, "state", None)
        if params is None or state is None:
            return 1.0
        value = getattr(state, "value", state)
        if value == "fill" and self._kf_override is not None and params.kf > 0:
            return self._kf_override / params.kf
        if (
            value in ("drain", "monitor")
            and self._kd_override is not None
            and params.kd > 0
        ):
            return self._kd_override / params.kd
        return 1.0

    def _sync(self) -> None:
        inner = self.inner
        if inner is None:
            if self._rate_override is not None:
                self.pacing_rate = self._rate_override
            return
        self._pending_burst += inner.take_burst()
        self.round_mode = inner.round_mode
        if self._rate_override is not None:
            self.pacing_rate = self._rate_override
        else:
            self.pacing_rate = inner.pacing_rate * self._gain_scale(inner)

    # -- the one rate-only forwarded hook --------------------------------
    def on_tick(self, now: float) -> None:
        if self.inner is not None:
            self.inner.on_tick(now)
            self._sync()


class WindowPolicyDriven(_Forwarding, WindowCongestionControl):
    """cwnd-based adapter: an external policy (or wrapped native
    algorithm) owns the congestion window."""

    name = "WindowPolicyDriven"
    congestion_trigger = "External policy"

    def __init__(self, inner: Optional[CongestionControl] = None) -> None:
        super().__init__()
        if inner is not None and not isinstance(inner, WindowCongestionControl):
            raise TypeError(
                "WindowPolicyDriven wraps cwnd-based algorithms; "
                "use PolicyDriven for rate-based ones"
            )
        self.inner = inner
        self._cwnd_override: Optional[float] = None
        self._sync()

    # -- external actions -----------------------------------------------
    def set_cwnd(self, cwnd: Optional[float]) -> None:
        """Pin the congestion window (segments); ``None`` returns
        control to the inner algorithm."""
        if cwnd is not None and cwnd < 1.0:
            raise ValueError("cwnd must be >= 1 segment")
        self._cwnd_override = cwnd
        self._sync()

    # -- inner mirroring ------------------------------------------------
    def _sync(self) -> None:
        if self._cwnd_override is not None:
            self.cwnd = self._cwnd_override
        elif self.inner is not None:
            self.cwnd = self.inner.cwnd
            self.ssthresh = self.inner.ssthresh


def policy_adapter(
    inner: Optional[CongestionControl] = None,
) -> Union[PolicyDriven, WindowPolicyDriven]:
    """The adapter matching ``inner``'s regulation mechanism.

    Rate-based inners (and ``None``) get :class:`PolicyDriven`,
    cwnd-based inners :class:`WindowPolicyDriven`.
    """
    if inner is None or isinstance(inner, RateCongestionControl):
        return PolicyDriven(inner)
    if isinstance(inner, WindowCongestionControl):
        return WindowPolicyDriven(inner)
    raise TypeError(
        f"cannot adapt {type(inner).__name__}: neither rate- nor "
        "cwnd-based"
    )
