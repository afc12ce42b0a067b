"""TCP bulk-data sender with pluggable congestion control.

Implements both packet-regulation mechanisms compared in the paper's
Figure 5:

* the **cwnd-based** mechanism — ACK-clocked, transmitting whenever the
  SACK-aware pipe estimate is below the algorithm's window (RFC 6675
  style), with fast retransmit on three duplicate ACKs and RFC 6298
  retransmission timeouts;
* the **rate-based** mechanism the paper adds to the kernel — a 1 ms
  pacing tick converts the algorithm's rate into whole packets, rounding
  up in Buffer Fill and down in Buffer Drain/Monitor, carrying the exact
  byte deficit across ticks, and serving algorithm-requested probe bursts
  (paper §4.3).  Retransmissions share the paced stream ("simply ignoring
  the cwnd and continue transmitting at the specified rate").

Loss handling is SACK-scoreboard based: a segment is marked lost once
three SACKed segments lie above it, and a retransmission timeout marks
everything outstanding lost and returns the algorithm to Slow Start.
The scoreboard itself (:mod:`repro.tcp.scoreboard`) stores per-segment
state as disjoint interval runs, so every recovery operation here —
SACK folds, loss marks, cumulative-ACK accounting, RTO requeues — is
O(loss runs) per ACK rather than O(window segments).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs import (
    CC_LOSS,
    CC_LOSS_RUNS,
    CC_RECOVERY,
    CC_RTO,
    current_profiler,
    current_tracer,
)
from repro.sim.engine import Event, Simulator
from repro.sim.packet import DATA_PACKET_BYTES, MSS, Packet
from repro.tcp.application import Application, BulkApplication
from repro.tcp.congestion.base import (
    CONTROL_HOOKS,
    AckSample,
    CongestionControl,
    RateCongestionControl,
    WindowCongestionControl,
)
from repro.tcp.rto import RtoEstimator
from repro.tcp.scoreboard import SenderScoreboard

#: Duplicate-ACK / SACK reordering threshold (RFC 6675 DupThresh).
DUPTHRESH = 3

#: Pacing tick interval — the kernel-tick analogue of paper §4.3.
DEFAULT_TICK = 0.001

#: Safety cap on packets released by a single pacing tick.
MAX_TICK_PACKETS = 500

PacketSink = Callable[[Packet], None]


class TcpSender:
    """One flow's sending endpoint with an infinite (or finite) backlog.

    Parameters
    ----------
    sim:
        Event loop.
    flow_id:
        Flow identifier stamped on outgoing segments.
    cc:
        The congestion-control module (window- or rate-based).
    send_packet:
        Callable injecting a data packet into the forward path.
    total_segments:
        Backlog size; None means an iperf-style unbounded transfer.
        Shorthand for ``application=BulkApplication(total_segments)``.
    application:
        A :class:`~repro.tcp.application.Application` supplying data
        over time (CBR/on-off sources make the transport app-limited).
        Overrides ``total_segments`` when given.
    tick:
        Pacing-tick interval for rate-based algorithms.
    on_complete:
        Called once when a finite transfer is fully acknowledged.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        cc: CongestionControl,
        send_packet: PacketSink,
        total_segments: Optional[int] = None,
        application: Optional[Application] = None,
        tick: float = DEFAULT_TICK,
        on_complete: Optional[Callable[[], None]] = None,
        packet_bytes: int = DATA_PACKET_BYTES,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.cc = cc
        self.send_packet = send_packet
        self.application = (
            application
            if application is not None
            else BulkApplication(total_segments)
        )
        self.total_segments = self.application.total()
        self.tick = tick
        self.on_complete = on_complete
        #: HostView fields that never change: plain attributes, so the
        #: congestion controller reads them without a property frame.
        self.packet_bytes = packet_bytes
        self.mss = MSS

        # Sequence state (segment indices).  Per-segment recovery state
        # lives in the run-based scoreboard; the sender keeps only the
        # aggregate counters it derives from scoreboard transitions.
        self.snd_una = 0
        self.next_seq = 0
        self.scoreboard = SenderScoreboard()
        #: SACK blocks known fully folded into the scoreboard.  A block
        #: once fully folded is a no-op forever (SACKED/CANCELLED tags
        #: never revert and the cumulative-ACK clip only grows), so
        #: membership lets repeated blocks skip the scoreboard entirely.
        #: Bounded: cleared wholesale when it reaches 64 entries.
        self._sack_noop: set = set()
        self._highest_sacked = 0
        self._pipe = 0
        self._loss_ptr = 0  # every seq below is acked, SACKed or marked lost
        self._dupacks = 0
        self._recovery_point: Optional[int] = None
        self._window_based = isinstance(cc, WindowCongestionControl)

        # Estimators and timers.
        self.rto_estimator = RtoEstimator()
        self._rto_event: Optional[Event] = None
        self._rto_deadline = 0.0
        self._app_poll_event: Optional[Event] = None
        self._tick_event: Optional[Event] = None
        self._tick_passive = False  # on_tick unobservable while idle
        self._tick_next = 0.0       # next tick time while suspended
        self._budget = 0.0  # paced byte budget (may dip negative: deficit)

        # Counters.
        self.delivered_total = 0
        self.lost_total = 0
        self.segments_sent = 0
        self.retransmissions = 0
        self.rto_count = 0
        self.acks_received = 0
        #: Loss marks cancelled by a later SACK (the retransmission
        #: would have been spurious; it was suppressed in time).
        self.spurious_marks = 0
        self.started = False
        self.complete = False

        # Telemetry: ambient tracer captured at construction; the ACK
        # hot path pays one None check when tracing is off.
        self._tracer = current_tracer()
        # Profiling: shadow the ACK entry point with a timed wrapper so
        # the whole ACK/scoreboard path is attributed to one phase.
        # The runner passes this *bound attribute* to attach_flow after
        # construction, so shadowing here covers every call; with
        # profiling off the plain method stays untouched.  The
        # controller's hooks are shadowed on the instance the same way,
        # as ``cc.control`` (nested inside ``ack.scoreboard`` for the
        # hooks an ACK drives).
        prof = current_profiler()
        if prof is not None:
            self.on_ack_packet = prof.wrap(  # type: ignore[method-assign]
                "ack.scoreboard", self.on_ack_packet)
            for hook in CONTROL_HOOKS:
                fn = getattr(cc, hook, None)
                if fn is not None:
                    setattr(cc, hook, prof.wrap("cc.control", fn))
        # The base hook is a no-op: call it only where a class overrides
        # it (decided once from the class, like ``_tick_passive``, and
        # bound after the profiler's wrap so a timed hook stays timed).
        self._on_sent = (
            cc.on_packet_sent
            if type(cc).on_packet_sent is not CongestionControl.on_packet_sent
            else None
        )

    # ------------------------------------------------------------------
    # HostView protocol (what the CC module may observe)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def srtt(self) -> Optional[float]:
        return self.rto_estimator.srtt

    @property
    def min_rtt(self) -> float:
        return self.rto_estimator.min_rtt

    @property
    def inflight(self) -> int:
        return self._pipe

    @property
    def in_recovery(self) -> bool:
        return self._recovery_point is not None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (call once; may be scheduled)."""
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        self.cc.bind(self)
        self.cc.on_connection_start()
        if self.cc.is_rate_based:
            cc = self.cc
            self._tick_passive = (
                type(cc).on_tick is RateCongestionControl.on_tick
                or cc.idle_tick_safe
            )
            self._tick_event = self.sim.schedule(0.0, self._tick_fire)
        else:
            self._fill_window()

    def stop(self) -> None:
        """Halt all activity (end of an experiment)."""
        self.complete = True
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        if self._app_poll_event is not None:
            self._app_poll_event.cancel()
            self._app_poll_event = None

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _send_one(self) -> bool:
        """Transmit one segment: retransmissions first, then new data."""
        return self._send_many(1) > 0

    def _send_many(self, budget: int) -> int:
        """Transmit up to ``budget`` segments; returns how many left.

        Retransmissions go first (lowest sequence first), claimed from
        the scoreboard a whole pending run at a time, then new data.
        The per-packet transmit sequence is identical to calling
        ``_send_one`` ``budget`` times — only the scoreboard bookkeeping
        is batched.
        """
        sent = 0
        board = self.scoreboard
        while sent < budget:
            run = board.take_pending(self.snd_una, budget - sent)
            if run is None:
                break
            for seq in range(run[0], run[1]):
                self._transmit(seq, retransmit=True)
            sent += run[1] - run[0]
        if sent < budget:
            # Batch the new-data budget: the application/backlog limits
            # are constant within this call, so asking the application
            # once transmits exactly the segments the per-packet loop
            # would.  A source at or behind ``next_seq`` leaves n <= 0.
            n = budget - sent
            produced = self.application.produced(self.sim.now)
            if produced is not None and produced - self.next_seq < n:
                n = produced - self.next_seq
            if self.total_segments is not None \
                    and self.total_segments - self.next_seq < n:
                n = self.total_segments - self.next_seq
            if n > 0:
                for _ in range(n):
                    seq = self.next_seq
                    self.next_seq = seq + 1
                    self._transmit(seq, retransmit=False)
                sent += n
        return sent

    def _transmit(self, seq: int, retransmit: bool) -> None:
        now = self.sim.now
        # make_data_packet's fields, positionally and without its frame.
        packet = Packet(self.flow_id, seq, 0, False, now, -1.0, [],
                        self.packet_bytes, now, retransmit)
        self._pipe += 1
        self.segments_sent += 1
        if retransmit:
            self.retransmissions += 1
        if self._on_sent is not None:
            self._on_sent(seq, now, retransmit)
        if self._rto_event is None:
            self._arm_rto()
        self.send_packet(packet)

    def _fill_window(self) -> None:
        """cwnd-based dispatch: send while the pipe is below the window."""
        cc = self.cc
        if not isinstance(cc, WindowCongestionControl):
            return
        limit = int(cc.cwnd)
        if self._pipe < limit:
            # Each transmit adds exactly one to the pipe, so a single
            # batched call with the remaining budget is equivalent to
            # the old send-one-while-below-limit loop.
            self._send_many(limit - self._pipe)
        # An app-limited, ACK-clocked sender can stall entirely: with
        # nothing in flight there are no ACKs to clock out data the
        # application produces later.  Poll for new production.
        if (
            self._pipe == 0
            and not self.complete
            and not self.scoreboard.has_pending
            and self._app_poll_event is None
            and (
                self.total_segments is None
                or self.next_seq < self.total_segments
            )
        ):
            produced = self.application.produced(self.sim.now)
            if produced is not None and self.next_seq >= produced:
                self._app_poll_event = self.sim.schedule(0.01, self._app_poll)

    def _app_poll(self) -> None:
        self._app_poll_event = None
        if not self.complete:
            self._fill_window()

    def _tick_fire(self) -> None:
        """Rate-based dispatch: one pacing tick (paper §4.3).

        Re-arms first, reusing the fired heap entry: the next tick's seq
        then precedes anything this tick schedules at the same instant.
        """
        event = self._tick_event
        if event is None:
            return
        self._tick_event = self.sim.reschedule(event, self.tick)
        if self.complete:
            return
        cc = self.cc
        assert isinstance(cc, RateCongestionControl)
        cc.on_tick(self.sim.now)

        burst = cc.take_burst()
        if burst:
            sent_burst = self._send_many(burst)
            if sent_burst < burst:
                # Application-limited: keep the remaining probe credits
                # for later ticks instead of silently discarding them (a
                # CBR source may not have produced the data yet).
                cc.request_burst(burst - sent_burst)

        rate = cc.pacing_rate
        if rate > 0.0:  # a zero or negative rate adds nothing
            self._budget += rate * self.tick
        count = int(self._budget // self.packet_bytes)
        remainder = self._budget - count * self.packet_bytes
        if cc.round_mode == "up" and remainder > 1e-9:
            count += 1
        if count > 0:
            count = min(count, MAX_TICK_PACKETS)
            sent = self._send_many(count)
            self._budget -= sent * self.packet_bytes
            if sent < count:
                # Application-limited: do not accumulate credit.
                self._budget = min(self._budget, float(self.packet_bytes))
        self._suspend_tick_if_idle(cc)

    def _suspend_tick_if_idle(self, cc: RateCongestionControl) -> None:
        """Park the pacing tick while ticks are provably no-ops.

        Requires an ``idle_tick_safe`` (or non-overridden) ``on_tick``,
        zero pacing rate, no pending probe burst, and a byte budget too
        small to release a packet under the current rounding mode.  Under
        those conditions only an ACK or an RTO can change the sender's
        state, and both resume the tick on its exact phase — so the
        simulation is bit-identical with or without the suspension.
        """
        if (
            self._tick_passive
            and cc.pacing_rate <= 0.0
            and cc.pending_burst == 0
            and (
                self._budget <= 1e-9
                if cc.round_mode == "up"
                else self._budget < self.packet_bytes
            )
        ):
            event = self._tick_event
            if event is not None:
                self._tick_next = event[0]
                event.cancel()
                self._tick_event = None

    def wake(self) -> None:
        """Resume a suspended pacing tick after an out-of-band control
        change.

        ACKs and RTOs — the two native resume points — cover every way
        a *native* algorithm can raise its rate from idle.  An external
        policy (:mod:`repro.tcp.congestion.policy`) can do it between
        ACKs, so its actions call here; the phase-exact reschedule in
        :meth:`_resume_tick` keeps the run bit-identical to one where
        the tick never suspended.
        """
        self._resume_tick()

    def _resume_tick(self) -> None:
        """Reschedule a suspended pacing tick at its next phase point.

        The float chain ``t += tick`` reproduces exactly the times the
        periodic re-arm would have produced had the tick kept firing.
        """
        if self._tick_event is not None or not self.cc.is_rate_based:
            return
        if self.complete or not self.started:
            return
        t = self._tick_next
        tick = self.tick
        now = self.sim.now
        while t < now:
            t += tick
        self._tick_event = self.sim.schedule_at(t, self._tick_fire)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack_packet(self, packet: Packet) -> None:
        """Handle an ACK arriving from the reverse path."""
        if self.complete or not self.started:
            return
        if self._tick_event is None and self.cc.is_rate_based:
            self._resume_tick()
        self.acks_received += 1
        now = self.sim.now
        ack = packet.ack

        newly_acked = ack - self.snd_una
        if newly_acked < 0:
            newly_acked = 0
        newly_sacked = (
            self._process_sacks(packet, ack) if packet.sacks else 0
        )

        recovery_exited = False
        if newly_acked:
            board = self.scoreboard
            if board.clean:
                # Loss-free fast path: every acked segment is a plain
                # in-flight transmission.
                pipe = self._pipe - newly_acked
            else:
                # One bulk transition clears the runs below ``ack`` and
                # yields the pipe decrement (in-flight + rtx in flight).
                pipe = self._pipe - board.ack_to(self.snd_una, ack)
            self._pipe = pipe if pipe > 0 else 0
            self.snd_una = ack
            if ack > self._loss_ptr:
                self._loss_ptr = ack
            self._dupacks = 0
            if (
                self._recovery_point is not None
                and ack >= self._recovery_point
            ):
                self._recovery_point = None
                recovery_exited = True
            # Re-arm the RTO; inlined _arm_rto for its common case, where
            # the queued timer fires no later than the new deadline.
            if ack < self.next_seq:
                deadline = now + self.rto_estimator.rto
                event = self._rto_event
                if event is not None and event[0] <= deadline:
                    self._rto_deadline = deadline
                else:
                    self._arm_rto()
            elif self._rto_event is not None:
                self._rto_event.cancel()
                self._rto_event = None

        is_dupack = newly_acked == 0 and ack == self.snd_una
        if is_dupack:
            self._dupacks += 1

        # Delivered accounting (paper §4.2): SACK gives exact counts; a
        # bare duplicate ACK is assumed to signal one delivered MSS.
        increment = newly_acked + newly_sacked
        if increment == 0 and is_dupack:
            increment = 1
        self.delivered_total += increment

        # Loss detection: _mark_losses when a SACK edge has moved
        # DupThresh segments past the loss pointer.
        newly_lost = (
            self._mark_losses()
            if self._highest_sacked - (DUPTHRESH - 1) > self._loss_ptr
            else 0
        )
        if self._dupacks >= DUPTHRESH and self._loss_ptr <= self.snd_una:
            # When _loss_ptr has passed snd_una the head is already
            # SACKed or marked (that is the pointer's invariant), so the
            # probe below could never mark anything — skip it.
            newly_lost += self._mark_lost_range(self.snd_una, self.snd_una + 1)

        # RTT / one-way-delay samples from the timestamp echo.
        rtt = None
        if newly_acked and packet.tsecr >= 0:
            rtt = now - packet.tsecr
            if rtt > 0:
                self.rto_estimator.on_rtt_sample(rtt)
        one_way = packet.tsval - packet.tsecr if packet.tsecr >= 0 else None

        # Positional, in AckSample's field order.
        sample = AckSample(
            now, ack, newly_acked, newly_sacked, self.delivered_total, rtt,
            one_way, packet.tsval, self._pipe, is_dupack,
            self._recovery_point is not None, self.lost_total,
        )

        tr = self._tracer
        if newly_lost and self._recovery_point is None:
            self._recovery_point = self.next_seq
            if tr is not None:
                tr.emit(CC_LOSS, now, flow=self.flow_id, lost=newly_lost,
                        lost_total=self.lost_total, una=self.snd_una,
                        recovery_point=self.next_seq)
            self.cc.on_congestion(sample)
        if recovery_exited:
            if tr is not None:
                tr.emit(CC_RECOVERY, now, flow=self.flow_id,
                        una=self.snd_una,
                        retransmissions=self.retransmissions)
            self.cc.on_recovery_exit(sample)
        self.cc.on_ack(sample)

        if self.total_segments is not None and self.snd_una >= self.total_segments:
            self._finish()
        elif self._window_based:
            self._fill_window()

    def _process_sacks(self, packet: Packet, cumulative_ack: int) -> int:
        """Fold SACK blocks into the scoreboard; returns newly SACKed count.

        SACK options repeat the older blocks on every ACK (robustness
        against ACK loss); ``_sack_noop`` remembers blocks already fully
        folded so the repeats skip the scoreboard outright.
        """
        newly = 0
        board = self.scoreboard
        memo = self._sack_noop
        for block in packet.sacks:
            key = (block.start, block.end)  # tuple: C-level hash
            if key in memo:
                continue
            start = max(block.start, cumulative_ack)
            if block.end > start:
                covered, pipe_drop, cancelled = board.sack_range(
                    start, block.end
                )
                if covered:
                    newly += covered
                    if pipe_drop:
                        pipe = self._pipe - pipe_drop
                        self._pipe = pipe if pipe > 0 else 0
                    if cancelled:
                        # Marked lost but actually delivered: the pending
                        # retransmissions are cancelled before leaving;
                        # their pipe contribution was removed at marking.
                        self.spurious_marks += cancelled
                if block.end > self._highest_sacked:
                    self._highest_sacked = block.end
            if len(memo) >= 64:
                memo.clear()
            memo.add(key)
        return newly

    # ------------------------------------------------------------------
    # Loss detection and recovery
    # ------------------------------------------------------------------
    def _mark_lost_range(self, start: int, end: int) -> int:
        """Mark the markable segments of ``[start, end)`` lost.

        Marked segments leave the pipe immediately (their retransmission
        re-enters it when sent).  Returns the newly marked count.
        """
        end = min(end, self.next_seq)
        start = max(start, self.snd_una)
        if end <= start:
            return 0
        newly, runs = self.scoreboard.mark_lost(start, end)
        if not newly:
            return 0
        pipe = self._pipe - newly
        self._pipe = pipe if pipe > 0 else 0
        self.lost_total += newly
        tr = self._tracer
        if tr is not None:
            tr.emit(CC_LOSS_RUNS, self.sim.now, flow=self.flow_id,
                    runs=[[s, e] for s, e, _ in runs], lost=newly,
                    una=self.snd_una)
        return newly

    def _mark_losses(self) -> int:
        """RFC 6675-style: a segment with >= DupThresh SACKed segments
        above it is lost.  Approximated by the highest SACKed edge.

        The scan window ``[_loss_ptr, threshold)`` is folded into the
        scoreboard as one bulk transition — O(loss runs), not O(window).
        The caller has checked that the window is not empty.
        """
        threshold = self._highest_sacked - (DUPTHRESH - 1)
        newly = self._mark_lost_range(
            max(self._loss_ptr, self.snd_una), threshold
        )
        self._loss_ptr = threshold
        return newly

    # ------------------------------------------------------------------
    # RTO
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        """Set the RTO deadline, scheduling a timer event only if needed.

        The deadline moves on every cumulative ACK, but the heap entry is
        reused lazily: an event that fires before the current deadline
        just re-schedules itself (no flow state is touched), so steady
        ACK processing allocates no timer events.
        """
        deadline = self.sim.now + self.rto_estimator.rto
        self._rto_deadline = deadline
        event = self._rto_event
        if event is None:
            self._rto_event = self.sim.schedule_at(deadline, self._rto_fire)
        elif event[0] > deadline:
            # The RTO shrank below the queued fire time; a late timer
            # would miss the real timeout, so replace the entry.
            event.cancel()
            self._rto_event = self.sim.schedule_at(deadline, self._rto_fire)

    def _rto_fire(self) -> None:
        self._rto_event = None
        if self.complete:
            return
        if self.sim.now < self._rto_deadline:
            # Stale wakeup: the deadline moved while this entry was queued.
            self._rto_event = self.sim.schedule_at(
                self._rto_deadline, self._rto_fire
            )
            return
        self._on_rto()

    def _on_rto(self) -> None:
        """Retransmission timeout: collapse and return to Slow Start."""
        self._rto_event = None
        if self.complete or self.snd_una >= self.next_seq:
            return
        self.rto_count += 1
        tr = self._tracer
        if tr is not None:
            tr.emit(CC_RTO, self.sim.now, flow=self.flow_id,
                    rto_count=self.rto_count, una=self.snd_una,
                    next=self.next_seq, rto=self.rto_estimator.rto)
        if self._tick_event is None and self.cc.is_rate_based:
            self._resume_tick()
        self.rto_estimator.on_timeout()
        # One bulk transition requeues the whole outstanding window:
        # in-flight and retransmitted segments become pending again
        # (newly counted lost); SACKed data and existing marks persist.
        self.lost_total += self.scoreboard.rto_requeue(
            self.snd_una, self.next_seq
        )
        self._pipe = 0
        self._loss_ptr = self.next_seq
        # RTO recovery is Slow Start, not fast recovery: leaving the
        # recovery flag set would freeze window growth until every
        # pre-timeout segment is re-acknowledged.
        self._recovery_point = None
        self._dupacks = 0
        self._budget = 0.0
        self.cc.on_rto()
        self._send_one()  # retransmit the head immediately (arms the RTO)
        if self._rto_event is None:
            self._arm_rto()
        self._fill_window()

    # ------------------------------------------------------------------
    def debug_expected_pipe(self) -> int:
        """Recompute the in-flight estimate from the scoreboard (audit aid).

        The incremental ``_pipe`` counter must always equal this O(runs)
        reconstruction: one transmission outstanding for every unacked
        segment that is neither SACKed nor marked lost, plus one for every
        retransmission in flight.  This walks the scoreboard runs
        independently of the counter, so it remains a meaningful check.
        """
        return self.scoreboard.expected_pipe(self.snd_una, self.next_seq)

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        self.stop()
        if self.on_complete is not None:
            self.on_complete()
