"""Congestion-control plug-in API.

The sender exposes two packet-regulation mechanisms (paper Figure 5):

* **cwnd-based** (:class:`WindowCongestionControl`): the sender transmits
  whenever fewer than ``cwnd`` segments are in flight, clocked by
  returning ACKs — the conventional mechanism.
* **rate-based** (:class:`RateCongestionControl`): a 1 ms pacing tick
  converts ``pacing_rate`` (bytes/s) into whole packets, rounding up or
  down per the algorithm's current ``round_mode`` and carrying the byte
  deficit across ticks (paper §4.3, "Sending packets").  Algorithms can
  additionally request immediate bursts (Slow Start / Monitor probes).

Algorithms receive an :class:`AckSample` for every ACK, a single
``on_congestion`` call per fast-retransmit episode, and ``on_rto`` on a
retransmission timeout.  They may inspect the attached host (a
:class:`HostView`) for clock, RTT state and in-flight counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable


@dataclass(slots=True)
class AckSample:
    """Everything an algorithm may learn from one ACK.

    Attributes
    ----------
    now:
        Sender clock when the ACK arrived.
    ack:
        Cumulative ACK (next expected segment index).
    newly_acked / newly_sacked:
        Segments newly covered by the cumulative ACK / by SACK blocks.
    delivered_total:
        Running count of segments known delivered (cumulative + SACKed;
        duplicate ACKs without SACK count one segment each, paper §4.2).
    rtt:
        RTT sample from the echoed timestamp, or None when the echo was
        unusable.
    one_way_delay:
        Relative one-way delay ``RD = tr − ts`` (receiver timestamp minus
        echoed sender timestamp, paper Figure 6(a)); receiver-clock
        quantisation applies.
    receiver_ts:
        The receiver's TSval (quantised receiver clock) — the basis of
        sender-side receive-rate estimation (paper Figure 6(b)).
    inflight:
        Segments in flight after processing this ACK.
    is_dupack:
        True for a duplicate ACK.
    in_recovery:
        True while the sender is in fast recovery.
    lost_total:
        Running count of segments ever marked lost.
    """

    now: float
    ack: int
    newly_acked: int
    newly_sacked: int
    delivered_total: int
    rtt: Optional[float]
    one_way_delay: Optional[float]
    receiver_ts: float
    inflight: int
    is_dupack: bool
    in_recovery: bool
    lost_total: int


@runtime_checkable
class HostView(Protocol):
    """What a congestion-control module may see of its sender."""

    @property
    def now(self) -> float: ...

    @property
    def mss(self) -> int: ...

    @property
    def packet_bytes(self) -> int: ...

    @property
    def srtt(self) -> Optional[float]: ...

    @property
    def min_rtt(self) -> float: ...

    @property
    def inflight(self) -> int: ...


class CongestionControl:
    """Base class for all algorithms.

    Subclasses override the event hooks they care about.  The class-level
    metadata mirrors the paper's Table 3 and is checked by the taxonomy
    benchmark.
    """

    #: Short name used in result tables.
    name: str = "base"
    #: Table 3 column "Sending Regulation".
    sending_regulation: str = "cwnd-based"
    #: Table 3 column "Congestion Trigger".
    congestion_trigger: str = "Packet Loss"
    #: True for rate-based algorithms (timer-clocked pacing).
    is_rate_based: bool = False

    def __init__(self) -> None:
        self.host: Optional[HostView] = None

    # -- lifecycle -----------------------------------------------------
    def bind(self, host: HostView) -> None:
        """Attach to a sender.  Called once before the connection starts."""
        self.host = host

    def on_connection_start(self) -> None:
        """Connection is about to send its first packet."""

    # -- events --------------------------------------------------------
    def on_ack(self, sample: AckSample) -> None:
        """An ACK (new or duplicate) arrived."""

    def on_congestion(self, sample: AckSample) -> None:
        """Fast retransmit triggered (once per recovery episode)."""

    def on_recovery_exit(self, sample: AckSample) -> None:
        """The recovery episode completed (cumulative ACK passed it)."""

    def on_rto(self) -> None:
        """Retransmission timeout fired."""

    def on_packet_sent(self, seq: int, now: float, retransmit: bool) -> None:
        """A data packet left the sender."""


#: The hooks whose time is the algorithm's control computation (Table
#: 4): the sender times them as the profiler phase ``cc.control``.
CONTROL_HOOKS = ("on_connection_start", "on_ack", "on_congestion",
                 "on_recovery_exit", "on_rto", "on_packet_sent", "on_tick")


class WindowCongestionControl(CongestionControl):
    """cwnd-regulated algorithms: sender keeps ``inflight < cwnd``."""

    #: Initial window in segments (the paper notes IW=10 is now standard).
    INITIAL_WINDOW = 10.0
    #: Loss window after an RTO (RFC 5681).
    LOSS_WINDOW = 1.0

    def __init__(self) -> None:
        super().__init__()
        self.cwnd: float = self.INITIAL_WINDOW
        self.ssthresh: float = float("inf")

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh


class RateCongestionControl(CongestionControl):
    """Rate-regulated algorithms: sender paces at ``pacing_rate`` bytes/s.

    ``round_mode`` controls per-tick packet rounding: "up" rounds the
    tick's byte budget up to a whole packet (Buffer Fill), "down" rounds
    it down (Buffer Drain / Monitor); the deficit carries over either way.
    ``request_burst`` queues packets for immediate transmission at the
    next tick, used for the Slow-Start and Monitor probe bursts.
    """

    is_rate_based = True
    sending_regulation = "Rate-based"

    #: Declares that ``on_tick`` is a pure in-flight-cap watchdog: it can
    #: only *zero* the pacing rate and mutates no other state, so ticks
    #: are unobservable while the rate is already zero.  The sender then
    #: suspends the pacing tick during fully idle stretches (zero rate,
    #: empty byte budget, no pending burst) and resumes it — on the exact
    #: tick phase — at the next ACK or RTO.  Algorithms whose ``on_tick``
    #: drives real state (e.g. PCC's monitor intervals) must leave this
    #: False.  Classes that do not override ``on_tick`` are always safe.
    idle_tick_safe: bool = False

    def __init__(self) -> None:
        super().__init__()
        self.pacing_rate: float = 0.0
        self.round_mode: str = "down"
        self._pending_burst: int = 0

    @property
    def pending_burst(self) -> int:
        """Packets queued for immediate transmission at the next tick."""
        return self._pending_burst

    def request_burst(self, packets: int) -> None:
        """Ask the sender to emit ``packets`` segments immediately."""
        if packets < 0:
            raise ValueError("burst must be non-negative")
        self._pending_burst += packets

    def take_burst(self) -> int:
        """Consume the pending burst request (called by the sender)."""
        burst, self._pending_burst = self._pending_burst, 0
        return burst

    def on_tick(self, now: float) -> None:
        """Called on every pacing tick, before packets are released."""
