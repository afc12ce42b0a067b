"""Runtime invariant auditing for the packet simulator.

The PR-1 hot-path rewrites (lazy event cancellation, lazy RTO re-arm,
pacing-tick suspension, the loss-free ACK fast path) are exactly the
kind of optimisation that corrupts results silently rather than
crashing.  The :class:`InvariantAuditor` cross-checks the optimised
incremental state against ground truth the simulator has anyway:

* **packet conservation** per link — every packet ever accepted by a
  bottleneck queue is still queued, in service, or was delivered or
  AQM-dropped (``enqueued == len(queue) + delivered + codel_drops
  [+ in_service]``), and no more packets reach the endpoints than
  exited the link;
* **monotonicity** — simulated time never runs backwards, cumulative
  ACK points (``snd_una``, ``rcv_nxt``) never regress, and the sender
  never believes more data was acknowledged than the receiver has;
* **queue bounds** — occupancy stays within ``[0, capacity]``;
* **timer liveness** — a flow with unACKed data always has a live RTO
  event, and a rate-based sender's pacing tick may only be parked when
  the ``idle_tick_safe`` suspension conditions provably hold (a direct
  audit of PR 1's lazy re-arm and tick suspension);
* **scoreboard integrity** — both endpoints keep per-segment state as
  tagged interval runs; the sender's incremental pipe counter must
  match an independent O(runs) reconstruction, the run structures must
  verify (sorted, disjoint, merged, counts consistent), the receiver's
  out-of-order store must never overlap its cumulative edge, and every
  SACK block the receiver emits must be exactly backed by stored runs;
* **estimator sanity** — the sender's ``t_buff`` and ρ estimates stay
  within coarse tolerance bands of the ground-truth queue sojourn and
  link drain rate.  The bands are deliberately one-sided and wide:
  under-estimates are routine (slow-start ramp, EWMA lag) and several
  scenarios *deliberately* bias the estimators (baseline shifts, ρ hold
  across outages), so only a sustained, large over-read — the failure
  mode that makes a sender overrun the network — trips the check.  The
  t_buff band is additionally gated on clean feedback: while loss
  recovery is in progress, dup ACKs echo a stale TSval (RFC 7323) and
  the resulting RD inflation is expected, not a bug.

The auditor is strictly an observer: it schedules no events and mutates
no simulation state, so a run with auditing enabled is bit-identical to
the same run without it.  The event loop itself stamps every event into
the flight-recorder ring (``Simulator.audit_ring`` — plain list stores,
no per-event Python call); full sweeps run every :data:`DEFAULT_STRIDE`
events and verify time monotonicity over the ring window accumulated
since the last sweep, so the check loses nothing to the striding.
:meth:`final_check` closes the loop at end of run — a totally stalled
flow fires no further events, so the end-of-run sweep is what catches
it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.debug.recorder import CAPACITY, FlightRecorder
from repro.obs import AUDIT_SENDER, AUDIT_VIOLATION, current_tracer
from repro.util.windows import WindowedMax

__all__ = ["InvariantAuditor", "InvariantViolation"]

#: Events between invariant sweeps.  The flight-recorder ring is
#: written inline by the event loop on every event, and each sweep
#: verifies time monotonicity over the ring entries accumulated since
#: the last one, so that check loses nothing to the striding.  The
#: structural checks (conservation, bounds, liveness) detect conditions
#: that persist once violated, so a coarser stride only delays
#: detection by milliseconds of simulated time.
DEFAULT_STRIDE = 64

#: Ground-truth windows (seconds): queue sojourn maximum and peak drain
#: rate are compared against estimates over this much trailing history.
SOJOURN_WINDOW = 4.0
DRAIN_WINDOW = 4.0

#: Slack added to the ground-truth sojourn bound before t_buff is
#: suspect.  Covers receiver timestamp quantisation and deliberate
#: baseline shifts (the handover scenario biases RD by tens of ms).
DEFAULT_TBUFF_TOLERANCE = 0.150

#: ρ may exceed the windowed peak drain rate by at most this factor.
DEFAULT_RHO_FACTOR = 8.0

#: Drain rates below this (bytes/s) are too small to judge ρ against
#: (outages, app-limited idling).
DEFAULT_RHO_FLOOR = 30000.0

#: Consecutive out-of-band observations (on distinct audited ACKs)
#: before an estimator check trips.  A single excursion is noise.
DEFAULT_SUSTAIN = 25

#: Audited-ACK sweeps between O(window) pipe reconstructions.
DEFAULT_PIPE_CHECK_EVERY = 100

#: Sweeps between the heavyweight sub-checks (windowed-filter folds,
#: estimator bands, sender snapshots).  The cheap structural checks —
#: conservation, bounds, monotonicity, liveness — run on every sweep;
#: the estimator bands are wide and sustained by design, so a 4x
#: coarser cadence costs them nothing.
_FULL_SWEEP_EVERY = 4

#: Minimum spacing between drain-rate samples (seconds): consecutive
#: sweeps closer than this are merged to keep the rate well-defined.
_MIN_RATE_DT = 0.002


class InvariantViolation(RuntimeError):
    """A simulator invariant failed.  Carries the dumped trace path."""

    def __init__(
        self, check: str, message: str, trace_path: Optional[str] = None
    ) -> None:
        super().__init__(f"[{check}] {message}")
        self.check = check
        self.detail = message
        self.trace_path = trace_path


class _LinkAudit:
    """Per-link ground-truth bookkeeping (observer only)."""

    __slots__ = (
        "link",
        "queue",
        "name",
        "is_wired",
        "sojourn_max",
        "drain_max",
        "_arrived_cell",
        "_last_rate_t",
        "_last_rate_bytes",
    )

    def __init__(self, link: Any) -> None:
        self.link = link
        self.queue = link.queue
        self.name = getattr(link, "name", "link")
        self.is_wired = hasattr(link, "_busy")
        # Hot-path accumulators, folded into the windowed trackers at
        # sweep time.  Arrivals are counted by a tap on the link's
        # delivery callback (a list-cell update and nothing else); the
        # true sojourn of every dequeued packet is kept by the queue
        # itself as a running maximum (``queue.sojourn_max``), which
        # each fold reads and resets.
        self._arrived_cell = [0]
        self.queue.sojourn_max = -1.0
        self.sojourn_max = WindowedMax(SOJOURN_WINDOW)
        self.drain_max = WindowedMax(DRAIN_WINDOW)
        self._last_rate_t: Optional[float] = None
        self._last_rate_bytes = 0
        self._wrap()

    @property
    def arrived(self) -> int:
        """Packets that completed propagation to the far endpoint."""
        return self._arrived_cell[0]

    def _wrap(self) -> None:
        """Tap deliveries to the far endpoint: counts packets that
        completed propagation (never more than exited the link)."""
        link = self.link
        original_deliver = link.on_deliver
        if original_deliver is not None:
            def _tap_deliver(
                packet: Any,
                _orig: Any = original_deliver,
                _cell: List[int] = self._arrived_cell,
            ) -> None:
                _cell[0] += 1
                _orig(packet)

            link.on_deliver = _tap_deliver

    def fold(self, now: float) -> None:
        """Fold the per-packet accumulators into the windowed trackers.

        Called at sweep cadence.  Stamping the bucket maximum with the
        sweep time (slightly after the dequeues it covers) only makes the
        ground-truth window retain it marginally longer — conservative
        for the one-sided estimator checks.
        """
        queue = self.queue
        sojourn = queue.sojourn_max
        if sojourn >= 0.0:
            self.sojourn_max.update(now, sojourn)
            queue.sojourn_max = -1.0
        last_t = self._last_rate_t
        if last_t is None:
            self._last_rate_t = now
            self._last_rate_bytes = self.link.delivered_bytes
            return
        dt = now - last_t
        if dt < _MIN_RATE_DT:
            return
        delivered = self.link.delivered_bytes
        self.drain_max.update(now, (delivered - self._last_rate_bytes) / dt)
        self._last_rate_t = now
        self._last_rate_bytes = delivered


class _FlowAudit:
    """Per-flow monotonicity, liveness, and estimator tracking."""

    __slots__ = (
        "sender",
        "receiver",
        "data_link",
        "last_una",
        "last_rcv_nxt",
        "last_acks",
        "ack_sweeps",
        "tbuff_streak",
        "rho_streak",
    )

    def __init__(
        self,
        sender: Any,
        receiver: Optional[Any],
        data_link: Optional[_LinkAudit],
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.data_link = data_link
        self.last_una = sender.snd_una
        self.last_rcv_nxt = receiver.rcv_nxt if receiver is not None else 0
        self.last_acks = sender.acks_received
        self.ack_sweeps = 0
        self.tbuff_streak = 0
        self.rho_streak = 0


class InvariantAuditor:
    """Continuously check simulator invariants against ground truth.

    Attach to a :class:`~repro.sim.engine.Simulator` (done by the
    constructor), then register topology with :meth:`attach_path` /
    :meth:`attach_link` and endpoints with :meth:`attach_flow` before
    running.  On a violation the flight recorder dumps a JSONL trace and
    :class:`InvariantViolation` is raised.  The bands are the module
    constants above.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.recorder = FlightRecorder()
        #: The ``audit.violation`` trace records raised so far.
        self.violations: List[Dict[str, Any]] = []
        self.sweeps = 0
        self.trace_path: Optional[str] = None
        self._ring_checked = 0  # ring entries already monotone-checked
        self._last_t = sim.now
        self._links: List[_LinkAudit] = []
        self._flows: List[_FlowAudit] = []
        # The event loop writes the flight-recorder ring inline and
        # sweeps every DEFAULT_STRIDE events (see Simulator.audit_ring).
        rec = self.recorder
        sim.audit_ring = (
            rec.ring_times,
            rec.ring_details,
            rec.ring_count,
            CAPACITY - 1,
            [DEFAULT_STRIDE],
            DEFAULT_STRIDE,
            self.sweep,
        )

    # ------------------------------------------------------------------
    # Topology registration
    # ------------------------------------------------------------------
    def attach_link(self, link: Any) -> _LinkAudit:
        """Audit one bottleneck link (conservation, bounds, sojourn)."""
        audit = _LinkAudit(link)
        self._links.append(audit)
        return audit

    def attach_path(self, path: Any) -> Tuple[_LinkAudit, _LinkAudit]:
        """Audit both directions of a :class:`DuplexPath`.

        Returns the (forward, reverse) link audits so flows can be
        bound to the link their *data* rides (``attach_flow``).
        """
        return self.attach_link(path.forward_link), self.attach_link(
            path.reverse_link
        )

    def attach_flow(
        self,
        sender: Any,
        receiver: Optional[Any] = None,
        data_link: Optional[_LinkAudit] = None,
    ) -> _FlowAudit:
        """Audit one flow's endpoints.

        ``data_link`` is the audit handle of the link carrying this
        flow's data packets (its queue is the one the sender's ``t_buff``
        and ρ estimates describe); omit it to skip estimator checks.
        """
        audit = _FlowAudit(sender, receiver, data_link)
        self._flows.append(audit)
        return audit

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------
    def _check_ring_monotone(self) -> None:
        """Verify simulated time never ran backwards since last sweep.

        The event loop stamps every event's time into the flight-
        recorder ring (the sweeps' sender snapshots share it, stamped
        with the sweep time), so the check replays the window
        accumulated since the last sweep.  The window is extracted as
        list slices and compared against its sorted copy — all C-level
        operations — so the amortised per-event cost is a few
        nanoseconds.
        """
        rec = self.recorder
        count = rec.ring_count[0]
        start = self._ring_checked
        if count == start:
            return
        # The window is one stride plus a sweep's sender snapshots.
        if count - start > CAPACITY:  # pragma: no cover
            start = count - CAPACITY
        i0, i1 = start & (CAPACITY - 1), count & (CAPACITY - 1)
        times = rec.ring_times
        if i0 < i1:
            window = times[i0:i1]
        else:
            window = times[i0:] + times[:i1]
        if window[0] < self._last_t or window != sorted(window):
            # Cold path: pinpoint the first regression.
            prev = self._last_t
            for offset, t in enumerate(window):
                if t < prev:
                    self._violation(
                        "time-monotone",
                        f"simulated time ran backwards: {t} after {prev} "
                        f"(ring entry #{start + offset})",
                    )
                prev = t
        self._last_t = window[-1]
        self._ring_checked = count

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def sweep(self, full: Optional[bool] = None) -> None:
        """Run the invariant checks once at the current instant.

        ``full`` forces (or suppresses) the heavyweight sub-checks;
        by default they run every ``_FULL_SWEEP_EVERY``-th sweep.
        """
        self.sweeps += 1
        if full is None:
            full = self.sweeps % _FULL_SWEEP_EVERY == 0
        now = self.sim.now
        self._check_ring_monotone()
        for link in self._links:
            self._check_link(link, now, full)
        for flow in self._flows:
            self._check_flow(flow, now, full)

    def final_check(self) -> None:
        """End-of-run closure: a fully stalled flow fires no further
        events, so the per-event sweeps never see it — this one does."""
        self.sweep(full=True)
        for flow in self._flows:
            sender = flow.sender
            if (
                sender.started
                and not sender.complete
                and sender.snd_una < sender.next_seq
                and self._live(sender._rto_event) is None
            ):
                self._violation(
                    "timer-liveness",
                    f"flow {sender.flow_id} ended stalled: "
                    f"una={sender.snd_una} < next={sender.next_seq} "
                    "with no live RTO timer",
                    flow=sender.flow_id,
                )

    @staticmethod
    def _live(event: Any) -> Optional[Any]:
        """The event if it is scheduled and not cancelled, else None."""
        if event is None or event[2] is None:
            return None
        return event

    def _check_link(self, audit: _LinkAudit, now: float, full: bool = True) -> None:
        link, queue = audit.link, audit.queue
        occupancy = len(queue)
        if occupancy > queue.capacity:
            self._violation(
                "queue-bounds",
                f"{audit.name}: occupancy {occupancy} exceeds capacity "
                f"{queue.capacity}",
                link=audit.name,
            )
        in_service = 1 if audit.is_wired and link._busy else 0
        codel_drops = getattr(queue, "codel_drops", 0)
        accounted = (
            occupancy + link.delivered_packets + codel_drops + in_service
        )
        if queue.enqueued != accounted:
            self._violation(
                "conservation",
                f"{audit.name}: {queue.enqueued} packets entered the queue "
                f"but only {accounted} are accounted for (queued={occupancy} "
                f"delivered={link.delivered_packets} codel={codel_drops} "
                f"in_service={in_service})",
                link=audit.name,
            )
        if audit.arrived > link.delivered_packets:
            self._violation(
                "conservation",
                f"{audit.name}: {audit.arrived} packets reached the endpoint "
                f"but the link only delivered {link.delivered_packets}",
                link=audit.name,
            )
        # Byte conservation (the packet-count check cannot see a packet
        # swapped for one of a different size).
        enqueued_bytes = getattr(queue, "enqueued_bytes", None)
        if enqueued_bytes is not None:
            in_service_bytes = (
                getattr(link, "_in_service_bytes", 0) if audit.is_wired else 0
            )
            codel_bytes = getattr(queue, "codel_dropped_bytes", 0)
            accounted_bytes = (
                queue.byte_length + link.delivered_bytes + codel_bytes
                + in_service_bytes
            )
            if enqueued_bytes != accounted_bytes:
                self._violation(
                    "conservation-bytes",
                    f"{audit.name}: {enqueued_bytes} bytes entered the queue "
                    f"but only {accounted_bytes} are accounted for "
                    f"(queued={queue.byte_length} "
                    f"delivered={link.delivered_bytes} codel={codel_bytes} "
                    f"in_service={in_service_bytes})",
                    link=audit.name,
                )
        if full:
            audit.fold(now)

    def _check_flow(self, flow: _FlowAudit, now: float, full: bool = True) -> None:
        sender = flow.sender
        una = sender.snd_una
        if una < flow.last_una:
            self._violation(
                "ack-monotone",
                f"flow {sender.flow_id}: snd_una regressed "
                f"{flow.last_una} -> {una}",
                flow=sender.flow_id,
            )
        flow.last_una = una
        if una > sender.next_seq:
            self._violation(
                "ack-monotone",
                f"flow {sender.flow_id}: snd_una {una} beyond "
                f"next_seq {sender.next_seq}",
                flow=sender.flow_id,
            )
        if sender._pipe < 0:
            self._violation(
                "pipe-accounting",
                f"flow {sender.flow_id}: negative in-flight {sender._pipe}",
                flow=sender.flow_id,
            )

        receiver = flow.receiver
        if receiver is not None:
            rcv_nxt = receiver.rcv_nxt
            if rcv_nxt < flow.last_rcv_nxt:
                self._violation(
                    "ack-monotone",
                    f"flow {sender.flow_id}: rcv_nxt regressed "
                    f"{flow.last_rcv_nxt} -> {rcv_nxt}",
                    flow=sender.flow_id,
                )
            flow.last_rcv_nxt = rcv_nxt
            if una > rcv_nxt:
                self._violation(
                    "ack-monotone",
                    f"flow {sender.flow_id}: sender believes {una} segments "
                    f"acked but receiver has only {rcv_nxt}",
                    flow=sender.flow_id,
                )
            if rcv_nxt > sender.next_seq:
                self._violation(
                    "conservation",
                    f"flow {sender.flow_id}: receiver advanced to {rcv_nxt} "
                    f"but sender only sent up to {sender.next_seq}",
                    flow=sender.flow_id,
                )

        if sender.started and not sender.complete:
            self._check_liveness(flow, sender)

        acks = sender.acks_received
        if full and acks != flow.last_acks:
            flow.last_acks = acks
            flow.ack_sweeps += 1
            self.recorder.record({
                "t": now, "kind": AUDIT_SENDER, "flow": sender.flow_id,
                "una": una, "next": sender.next_seq, "pipe": sender._pipe,
                "acks": acks,
            })
            if flow.ack_sweeps % DEFAULT_PIPE_CHECK_EVERY == 0:
                expected = sender.debug_expected_pipe()
                if sender._pipe != expected:
                    self._violation(
                        "pipe-accounting",
                        f"flow {sender.flow_id}: incremental pipe "
                        f"{sender._pipe} != scoreboard reconstruction "
                        f"{expected}",
                        flow=sender.flow_id,
                    )
                self._check_scoreboards(flow, sender)
            self._check_estimators(flow, now)

    def _check_scoreboards(self, flow: _FlowAudit, sender: Any) -> None:
        """Run-structure and receiver reordering-buffer invariants.

        Both endpoints keep per-segment state as tagged interval runs
        (:mod:`repro.tcp.scoreboard`); this verifies the structural
        invariants of both maps, that the receiver's out-of-order store
        never overlaps the cumulative edge (everything at or below
        ``rcv_nxt`` must have been consumed), and that every SACK block
        the receiver would emit is exactly backed by stored runs.
        """
        try:
            sender.scoreboard.check()
        except ValueError as exc:
            self._violation(
                "scoreboard-structure",
                f"flow {sender.flow_id}: sender scoreboard corrupt: {exc}",
                flow=sender.flow_id,
            )
        receiver = flow.receiver
        if receiver is None:
            return
        ooo = receiver._ooo
        try:
            ooo.check()
        except ValueError as exc:
            self._violation(
                "scoreboard-structure",
                f"flow {sender.flow_id}: receiver reorder store corrupt: "
                f"{exc}",
                flow=sender.flow_id,
            )
        if ooo:
            if ooo.min <= receiver.rcv_nxt:
                self._violation(
                    "receiver-ooo",
                    f"flow {sender.flow_id}: out-of-order store holds "
                    f"segment {ooo.min} at or below rcv_nxt "
                    f"{receiver.rcv_nxt}",
                    flow=sender.flow_id,
                )
            for block in receiver._sack_blocks():
                if not ooo.contains_range(block.start, block.end):
                    self._violation(
                        "receiver-ooo",
                        f"flow {sender.flow_id}: SACK block "
                        f"[{block.start}, {block.end}) not fully backed "
                        "by the reorder store",
                        flow=sender.flow_id,
                    )

    def _check_liveness(self, flow: _FlowAudit, sender: Any) -> None:
        if sender.snd_una < sender.next_seq and self._live(sender._rto_event) is None:
            self._violation(
                "timer-liveness",
                f"flow {sender.flow_id}: unACKed data "
                f"(una={sender.snd_una}, next={sender.next_seq}) "
                "with no live RTO timer",
                flow=sender.flow_id,
            )
        cc = sender.cc
        if cc.is_rate_based and self._live(sender._tick_event) is None:
            # The tick may only be parked under the exact conditions of
            # TcpSender._suspend_tick_if_idle — otherwise the flow can
            # never transmit again without an ACK or RTO waking it.
            budget_idle = (
                sender._budget <= 1e-9
                if cc.round_mode == "up"
                else sender._budget < sender.packet_bytes
            )
            if not (
                sender._tick_passive
                and cc.pacing_rate <= 0.0
                and cc.pending_burst == 0
                and budget_idle
            ):
                self._violation(
                    "timer-liveness",
                    f"flow {sender.flow_id}: pacing tick parked while the "
                    f"sender could transmit (rate={cc.pacing_rate}, "
                    f"burst={cc.pending_burst}, budget={sender._budget}, "
                    f"passive={sender._tick_passive})",
                    flow=sender.flow_id,
                )

    def _active_flows_on(self, link: _LinkAudit) -> int:
        """Flows currently competing for ``link`` (started, not done)."""
        count = 0
        for other in self._flows:
            if other.data_link is link:
                sender = other.sender
                if sender.started and not sender.complete:
                    count += 1
        return count

    def _tbuff_band(self, link: _LinkAudit) -> float:
        """The t_buff slack for a flow whose data rides ``link``.

        Under contention the single-flow band is too tight: a sender's
        RD samples arrive once per *own* delivered packet, so with N
        active flows sharing the bottleneck the smoothed t_buff decays
        roughly N× slower than the ground-truth sojourn window, and the
        peaks it holds include queueing contributed by the *other*
        flows.  Both effects are benign — the estimate describes the
        queue the sender actually observed — so the band scales with
        the count of active flows on the audited link.
        """
        return DEFAULT_TBUFF_TOLERANCE * max(1, self._active_flows_on(link))

    def _check_estimators(self, flow: _FlowAudit, now: float) -> None:
        link = flow.data_link
        if link is None:
            return
        sender = flow.sender
        cc = sender.cc

        delay_est = getattr(cc, "delay_estimator", None)
        if delay_est is not None:
            # The t_buff band is only meaningful on clean feedback.
            # While the receiver holds a hole (out-of-order data), dup
            # ACKs echo the stale pre-hole TSval per RFC 7323, so the
            # sender's RD — and with it t_buff — legitimately inflates
            # with the age of the hole.  Under sustained overflow drops
            # (wired PR(max), contention vs CUBIC) that bias dwarfs the
            # true queue sojourn, so the streak resets whenever loss
            # recovery is in progress at either end.
            receiver = flow.receiver
            dirty = sender.scoreboard.in_loss_recovery or (
                receiver is not None and bool(receiver._ooo)
            )
            if dirty:
                flow.tbuff_streak = 0
                delay_est = None

        if delay_est is not None:
            estimate = delay_est.tbuff_smooth
            truth = link.sojourn_max.current(now)
            if estimate is not None and truth is not None:
                tolerance = self._tbuff_band(link)
                if estimate > truth + tolerance:
                    flow.tbuff_streak += 1
                    if flow.tbuff_streak >= DEFAULT_SUSTAIN:
                        self._violation(
                            "estimator-tbuff",
                            f"flow {flow.sender.flow_id}: t_buff estimate "
                            f"{estimate:.3f}s exceeds ground-truth max queue "
                            f"sojourn {truth:.3f}s (+{tolerance:.3f}s "
                            f"tolerance) for {flow.tbuff_streak} consecutive "
                            "audited ACKs",
                            flow=flow.sender.flow_id,
                        )
                else:
                    flow.tbuff_streak = 0
            else:
                flow.tbuff_streak = 0

        rate_est = getattr(cc, "rate_estimator", None)
        if rate_est is not None:
            estimate = rate_est.rate
            truth = link.drain_max.current(now)
            if (
                estimate is not None
                and truth is not None
                and truth >= DEFAULT_RHO_FLOOR
            ):
                if estimate > truth * DEFAULT_RHO_FACTOR:
                    flow.rho_streak += 1
                    if flow.rho_streak >= DEFAULT_SUSTAIN:
                        self._violation(
                            "estimator-rho",
                            f"flow {flow.sender.flow_id}: ρ estimate "
                            f"{estimate:.0f} B/s exceeds {DEFAULT_RHO_FACTOR}x "
                            f"the ground-truth peak drain rate {truth:.0f} "
                            f"B/s for {flow.rho_streak} consecutive audited "
                            "ACKs",
                            flow=flow.sender.flow_id,
                        )
                else:
                    flow.rho_streak = 0
            else:
                flow.rho_streak = 0

    # ------------------------------------------------------------------
    # Violation / exception handling
    # ------------------------------------------------------------------
    def _violation(self, check: str, message: str, **context: Any) -> None:
        """Record, trace, dump and raise one violation.  The one
        ``audit.violation`` record goes to :attr:`violations`, the
        telemetry trace and the dump alike."""
        record = {"t": self.sim.now, "kind": AUDIT_VIOLATION,
                  "check": check, "message": message, **context}
        self.violations.append(record)
        tr = current_tracer()
        if tr is not None:
            tr.emit(**record)
        self._dump()
        raise InvariantViolation(check, message, trace_path=self.trace_path)

    def record_exception(self, exc: BaseException) -> str:
        """Dump the flight recorder for an unhandled engine exception."""
        return self._dump(exception=f"{type(exc).__name__}: {exc}")

    def _dump(self, exception: Optional[str] = None) -> str:
        self.trace_path = self.recorder.dump(
            self.sim.now, self.violations, self.sweeps, exception,
            path=self.trace_path,
        )
        return self.trace_path
