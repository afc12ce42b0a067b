"""Link models: trace-driven cellular links and constant-rate wired links.

:class:`CellularLink` is the Cellsim substrate: it replays a
:class:`~repro.traces.trace.Trace` of delivery opportunities through a
finite queue.  Each opportunity can carry up to 1500 bytes; several small
packets (e.g. ACKs) may share one opportunity, and an opportunity that
finds the queue empty is wasted — exactly the semantics of the emulator
used in the paper.

:class:`WiredLink` is a conventional store-and-forward link with a fixed
service rate, used for the Figure-13 inter-continental experiments.

Batched delivery
----------------
Serving one opportunity per heap event costs a pop, a serve callback, an
arm, and one delivery event *per packet*.  :class:`CellularLink` batches
that work under a *quiescence* condition: while no other event can run —
this link's own pending deliveries included — consecutive opportunities
are served in one callback, draining the queue in slices
(:meth:`~repro.sim.queues.DropTailQueue.drain_opportunity`) and handing
groups of packets to a single self-re-arming delivery *pump* event.  The
soundness argument, and the one-opportunity-per-event reference link the
tests hold this engine to, are in DESIGN.md §9.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.obs import (
    LINK_BATCH,
    LINK_HANDOVER,
    LINK_OUTAGE,
    LINK_RECOVER,
    Tracer,
    current_profiler,
    current_tracer,
)
from repro.sim.engine import Event, Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.traces.trace import OPPORTUNITY_BYTES, Trace

DeliverCallback = Callable[[Packet], None]

#: A service gap at least this long with packets queued is reported as a
#: ``link.outage`` telemetry event (normal inter-opportunity gaps on the
#: paper's traces are milliseconds).
OUTAGE_GAP = 0.100

#: Batches draining at least this many opportunities get a discrete
#: ``link.batch`` telemetry event.  Smaller batches (the steady drizzle
#: of 2-3-opportunity ACK coalesces — tens of thousands per run) are
#: aggregated into the ``run.link.<name>.batches``/``.batched_packets``
#: metrics counters instead, keeping the tracer-on overhead bounded.
LINK_BATCH_EVENT_MIN = 8

_INF = float("inf")


class Link:
    """Common interface: ``enqueue`` a packet, ``on_deliver`` fires later."""

    def enqueue(self, packet: Packet) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class CellularLink(Link):
    """A trace-driven bottleneck: finite queue drained by trace opportunities.

    Parameters
    ----------
    sim:
        The event loop.
    trace:
        Delivery-opportunity schedule; replayed cyclically when ``loop``.
    queue:
        The bottleneck buffer (drop-tail by default, CoDel for the AQM
        discussion experiment).
    prop_delay:
        Fixed one-way propagation delay applied after service.
    on_deliver:
        Called with each packet when it exits the link.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: Trace,
        queue: DropTailQueue,
        prop_delay: float = 0.020,
        on_deliver: Optional[DeliverCallback] = None,
        loop: bool = True,
        name: str = "cell",
    ) -> None:
        if len(trace) == 0:
            raise ValueError("trace has no delivery opportunities")
        self.sim = sim
        self.trace = trace
        self.queue = queue
        self._prop_delay = prop_delay
        self.on_deliver = on_deliver
        self.loop = loop
        self.name = name
        self._tracer = current_tracer()
        #: Multi-opportunity batches drained and the packets they
        #: carried; folded into ``run.link.<name>.batches`` /
        #: ``.batched_packets`` metrics by the runner at run end.
        self.batches_drained = 0
        self.batched_packets = 0
        self._outage_open = False
        schedule = trace.compiled()
        self._schedule = schedule
        self._times = schedule.times
        # Plain-float copy: scalar indexing and bisect on a Python list
        # beat numpy scalar extraction on this per-packet path.  Shared
        # across every link replaying the same trace.
        self._times_list: List[float] = schedule.times_list
        self._tsize = schedule.size
        self._period = schedule.period
        self._cycle = 0  # how many whole trace periods have elapsed
        self._index = 0  # next opportunity index within the current cycle
        self._service_event: Optional[Event] = None
        self._serve_cb = self._serve
        # Profiling: time the service loop and the delivery pump by
        # shadowing the callables the event loop invokes (both are
        # always referenced through ``self``, so instance-attribute
        # wrappers cover every call; off = no wrapper, no cost).
        prof = current_profiler()
        if prof is not None:
            self._serve_cb = prof.wrap("link.serve", self._serve_cb)
            self._pump_fire = prof.wrap(  # type: ignore[method-assign]
                "delivery.pump", self._pump_fire)
        # Delivery pump: pending [time, packets] groups (time-ascending
        # from _phead) drained by one self-re-arming event.
        self._pending: List[Optional[list]] = []
        self._phead = 0
        self._pump_event: Optional[Event] = None
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.wasted_opportunities = 0

    @property
    def prop_delay(self) -> float:
        return self._prop_delay

    @prop_delay.setter
    def prop_delay(self, value: float) -> None:
        """Mid-run changes model a handover / signal-path shift; traced."""
        old = self._prop_delay
        self._prop_delay = value
        tr = self._tracer
        if tr is not None and value != old:
            tr.emit(LINK_HANDOVER, self.sim.now, link=self.name,
                    prop_delay=value, delta=value - old)

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the bottleneck buffer.

        Returns False if the buffer dropped it.
        """
        accepted = self.queue.push(packet, self.sim.now)
        if accepted and self._service_event is None:
            self._arm_service()
        return accepted

    # ------------------------------------------------------------------
    def _next_opportunity_time(self) -> float:
        """Absolute time of the next unused delivery opportunity >= now.

        Fast-forwards over opportunities that elapsed while the queue was
        empty (they are wasted by definition; we count them lazily).
        """
        now = self.sim.now
        times = self._times_list
        size = self._tsize
        schedule = self._schedule
        while True:
            base = self._cycle * self._period
            local = now - base
            idx = self._index
            # Busy-link fast path: the pending opportunity is still ahead.
            if idx < size and times[idx] >= local:
                return base + times[idx]
            # Jump the index to the first opportunity at/after now
            # (vectorized searchsorted over the compiled schedule).
            idx = schedule.first_at_or_after(local, idx)
            if idx > self._index:
                self.wasted_opportunities += idx - self._index
                self._index = idx
            if idx < size:
                return base + times[idx]
            if not self.loop:
                return _INF
            self._cycle += 1  # end of cycle: roll over
            self._index = 0

    def _arm_service(self, reuse: Optional[Event] = None) -> None:
        t = self._next_opportunity_time()
        tr = self._tracer
        if tr is not None and not self._outage_open:
            gap = t - self.sim.now
            if gap >= OUTAGE_GAP:
                self._outage_open = True
                tr.emit(LINK_OUTAGE, self.sim.now, link=self.name,
                        gap=(gap if t != _INF else None),
                        queued=len(self.queue))
        if t == _INF:
            self._service_event = None
            return
        if reuse is not None:
            # Re-arm the just-fired serve entry in place: same ordering
            # as a fresh schedule_at, no allocation.
            self._service_event = self.sim.reschedule_at(reuse, t)
        else:
            self._service_event = self.sim.schedule_at(t, self._serve_cb)

    # ------------------------------------------------------------------
    def _serve(self) -> None:
        """Serve the opportunity at ``now`` plus every later one that is
        provably unobservable: strictly before the quiescence horizon
        (the next event of any owner, this link's own pending and newly
        scheduled deliveries included) and within the ``run(until)``
        bound."""
        sim = self.sim
        fired = self._service_event
        self._service_event = None
        tr = self._tracer
        queue = self.queue
        if self._outage_open:
            self._outage_open = False
            if tr is not None:
                tr.emit(LINK_RECOVER, sim.now, link=self.name,
                        queued=len(queue))

        # Computed lazily — a batch that ends at its first opportunity
        # (queue drained) never pays for the heap probe.
        horizon = -_INF
        t = sim.now
        # The run(until) boundary is inclusive (events AT `until` fire),
        # unlike the strictly-exclusive quiescence horizon; keep it as a
        # separate `nt <= limit` test in the loop.
        limit = sim.run_until
        drain = queue.drain_opportunity
        q_deque = queue._queue
        times = self._times_list
        size = self._tsize
        period = self._period
        prop = self._prop_delay
        loop_trace = self.loop
        deliver = self.on_deliver is not None
        index = self._index
        cycle = self._cycle
        delivered_p = 0
        delivered_b = 0
        wasted = 0
        opportunities = 0
        first_t = t
        group: Optional[list] = None
        while True:
            opportunities += 1
            index += 1
            pkts = drain(t, OPPORTUNITY_BYTES)
            if pkts:
                nbytes = 0
                for p in pkts:
                    nbytes += p.size
                delivered_p += len(pkts)
                delivered_b += nbytes
                if deliver:
                    due = t + prop
                    if group is not None and group[0] == due:
                        # Duplicate opportunity instant: nothing ran, so
                        # nothing claimed a seq, since this batch opened
                        # the group; one event delivers both slices.
                        group[1] += pkts
                    else:
                        group = self._push_group(due, pkts)
            else:
                wasted += 1
            if not q_deque:
                # Idle: leave the service disarmed; the next enqueue
                # re-arms and the lazy fast-forward accounts wasted
                # opportunities.
                break
            # Replicate the per-event re-arm's float round-trip
            # (_next_opportunity_time): its `local = now - base` carries
            # the error of `base + times[i]` upward once cycle > 0, so any
            # remaining *same-instant* duplicate opportunities compare
            # below `local` and are wasted, not served.  A batch boundary
            # must not change that, and ms-quantized traces depend on it.
            local = t - cycle * period
            while index < size and times[index] < local:
                index += 1
                wasted += 1
            if index < size:
                nt = cycle * period + times[index]
            elif loop_trace:
                cycle += 1
                index = 0
                nt = period * cycle + times[0]
            else:
                nt = _INF
            if horizon == -_INF:
                # The pump is not excluded: one of our own deliveries
                # firing inside the window would let its consequences
                # (an ACK served by the reverse link) claim heap seqs
                # *after* groups this batch claimed up front, flipping
                # exact-time ties (DESIGN.md §9).  The first_t + prop cap
                # covers the groups this batch itself schedules.
                horizon = sim.horizon_excluding(None)
                bound = first_t + prop
                if bound < horizon:
                    horizon = bound
            if nt < horizon and (limit is None or nt <= limit):
                t = nt
                continue
            # Horizon reached: arm a plain service event at nt.
            self._index = index
            self._cycle = cycle
            if tr is not None and not self._outage_open:
                # Gap measured from the last opportunity actually served,
                # where a one-opportunity-per-event link would emit it.
                gap = nt - t
                if gap >= OUTAGE_GAP:
                    self._outage_open = True
                    tr.emit(LINK_OUTAGE, sim.now, link=self.name,
                            gap=(gap if nt != _INF else None),
                            queued=len(queue))
            if nt != _INF:
                self._service_event = sim.reschedule_at(fired, nt) \
                    if fired is not None else sim.schedule_at(nt, self._serve_cb)
            self._finish_batch(tr, opportunities, delivered_p, delivered_b,
                               wasted, t - first_t)
            return
        self._index = index
        self._cycle = cycle
        self._finish_batch(tr, opportunities, delivered_p, delivered_b,
                           wasted, t - first_t)

    def _finish_batch(self, tr: Optional[Tracer], opportunities: int,
                      delivered_p: int, delivered_b: int, wasted: int,
                      span: float) -> None:
        self.delivered_packets += delivered_p
        self.delivered_bytes += delivered_b
        self.wasted_opportunities += wasted
        if opportunities > 1:
            self.batches_drained += 1
            self.batched_packets += delivered_p
            if tr is not None and opportunities >= LINK_BATCH_EVENT_MIN:
                tr.emit(LINK_BATCH, self.sim.now, link=self.name,
                        opportunities=opportunities, packets=delivered_p,
                        bytes=delivered_b, span=span)

    def _push_group(self, time: float, pkts: List[Packet]) -> list:
        """Add a delivery group, keeping ``_pending`` time-sorted and the
        pump armed at the head group's time; returns the group.

        Each group claims its heap seq *at creation* — the point where
        a per-packet delivery event would have been scheduled — so
        exact-time ties against other events break the same way wherever
        the batch boundaries fall (see DESIGN.md §9).  Groups from
        different serve events are never merged, even at one delivery
        instant: another event due at that instant may have claimed a
        seq between them.
        """
        sim = self.sim
        pending = self._pending
        phead = self._phead
        group = [time, pkts, sim.claim_seq()]
        if len(pending) > phead:
            if time >= pending[-1][0]:
                pending.append(group)
                return group
            # Rare: a handover shrank prop_delay while deliveries were
            # in flight; insert in time order, after any equal slot.
            i = len(pending) - 1
            while i > phead and pending[i - 1][0] > time:
                i -= 1
            pending.insert(i, group)
            if i == phead:
                self._pump_event.cancel()
                self._pump_event = sim.schedule_claimed(
                    time, group[2], self._pump_fire)
            return group
        if pending:
            pending.clear()
        self._phead = 0
        pending.append(group)
        self._pump_event = sim.schedule_claimed(
            time, group[2], self._pump_fire)
        return group

    def _pump_fire(self) -> None:
        """Deliver the head group; re-arm for the next one."""
        pending = self._pending
        phead = self._phead
        group = pending[phead]
        pending[phead] = None
        phead += 1
        if phead >= len(pending):
            pending.clear()
            self._phead = 0
            self._pump_event = None
        else:
            if phead >= 64 and phead * 2 >= len(pending):
                del pending[:phead]
                phead = 0
            self._phead = phead
            nxt = pending[phead]
            self._pump_event = self.sim.requeue_claimed(
                self._pump_event, nxt[0], nxt[2])
        callback = self.on_deliver
        if callback is not None:
            for p in group[1]:
                callback(p)

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self.queue)


class WiredLink(Link):
    """A fixed-rate store-and-forward link with a finite drop-tail buffer."""

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        queue: DropTailQueue,
        prop_delay: float = 0.010,
        on_deliver: Optional[DeliverCallback] = None,
        name: str = "wired",
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = rate
        self.queue = queue
        self.prop_delay = prop_delay
        self.on_deliver = on_deliver
        self.name = name
        self._busy = False
        self.delivered_packets = 0
        self.delivered_bytes = 0
        #: Bytes of the packet currently in service (the auditor's byte
        #: conservation check needs it: a popped-but-undelivered packet
        #: is neither queued nor delivered).
        self._in_service_bytes = 0

    def enqueue(self, packet: Packet) -> bool:
        accepted = self.queue.push(packet, self.sim.now)
        if accepted and not self._busy:
            self._start_service()
        return accepted

    def _start_service(self) -> None:
        packet = self.queue.pop(self.sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self._in_service_bytes = packet.size
        service_time = packet.size / self.rate
        self.sim.schedule(service_time, partial(self._finish, packet))

    def _finish(self, packet: Packet) -> None:
        self._in_service_bytes = 0
        self.delivered_packets += 1
        self.delivered_bytes += packet.size
        if self.on_deliver is not None:
            self.sim.schedule(self.prop_delay, partial(self.on_deliver, packet))
        if len(self.queue) > 0:
            self._start_service()
        else:
            self._busy = False
