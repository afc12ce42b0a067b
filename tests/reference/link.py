"""The reference cellular links.

:class:`ReferenceCellularLink` is the batched link's per-packet path as
the Python it was before it moved to C (``repro.sim._core.Cellular``),
kept verbatim: ``enqueue``, ``_serve``, ``_finish_batch``,
``_push_group`` and ``_pump_fire``.  With the reference event loop
(:mod:`tests.reference.engine`), queues (:mod:`tests.reference.queues`),
receiver (:mod:`tests.reference.receiver`), packet
(:mod:`tests.reference.packet`) and demux (:mod:`tests.reference.network`)
it is the pure-Python packet core that tests/test_core_diff.py holds the
C core to, installed with :func:`python_core`.

:class:`ScalarCellularLink` is the one-opportunity-per-event,
one-event-per-delivered-packet link the batched
:class:`~repro.sim.link.CellularLink` must be bit-identical to
(DESIGN.md §9); differential tests install it with :func:`scalar_links`.
Both are pure Python, so they run on either event loop.
"""

from __future__ import annotations

import contextlib
from functools import partial
from typing import Iterator, List, Optional
from unittest import mock

import repro.experiments.runner
import repro.sim.network
import repro.tcp.sender
from repro.obs import LINK_BATCH, LINK_OUTAGE, LINK_RECOVER, Tracer
from repro.sim.link import _INF, LINK_BATCH_EVENT_MIN, OUTAGE_GAP, CellularLink
from repro.sim.packet import Packet
from repro.traces.trace import OPPORTUNITY_BYTES
from tests.reference.engine import Simulator as ReferenceSimulator
from tests.reference.network import ReferenceDuplexPath
from tests.reference.packet import Packet as ReferencePacket
from tests.reference.queues import CoDelQueue as ReferenceCoDelQueue
from tests.reference.queues import DropTailQueue as ReferenceDropTailQueue
from tests.reference.receiver import TcpReceiver as ReferenceTcpReceiver


class ReferenceCellularLink(CellularLink):
    """The batched link with its per-packet methods in Python."""

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the bottleneck buffer.

        Returns False if the buffer dropped it.
        """
        accepted = self.queue.push(packet, self.sim.now)
        if accepted and self._service_event is None:
            self._arm_service()
        return accepted

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
        times = self._times
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


class ScalarCellularLink(ReferenceCellularLink):
    """Reference link: each heap event consumes exactly one delivery
    opportunity and every served packet gets its own delivery event, so
    there are no batch boundaries to observe."""

    def _serve(self) -> None:
        fired = self._service_event
        self._service_event = None
        if self._outage_open:
            self._outage_open = False
            tr = self._tracer
            if tr is not None:
                tr.emit(LINK_RECOVER, self.sim.now, link=self.name,
                        queued=len(self.queue))
        self._index += 1
        budget = OPPORTUNITY_BYTES
        served_any = False
        while True:
            head = self.queue.peek()
            if head is None or head.size > budget:
                break
            packet = self.queue.pop(self.sim.now)
            if packet is None:
                break
            budget -= packet.size
            served_any = True
            self.delivered_packets += 1
            self.delivered_bytes += packet.size
            if self.on_deliver is not None:
                self.sim.schedule(
                    self._prop_delay, partial(self.on_deliver, packet))
        if not served_any:
            # CoDel may drop everything it dequeues; a truly empty queue
            # simply wastes the opportunity.
            self.wasted_opportunities += 1
        if len(self.queue) > 0:
            self._arm_service(reuse=fired)


def scalar_links():
    """Context manager: every :class:`~repro.sim.network.DuplexPath`
    built inside the block gets :class:`ScalarCellularLink` for its
    trace-driven links."""
    return mock.patch.object(
        repro.sim.network, "CellularLink", ScalarCellularLink)


@contextlib.contextmanager
def python_core() -> Iterator[None]:
    """Context manager: every experiment harness built inside the block
    runs the pure-Python packet core.  It runs on the reference event
    loop, its path demultiplexes in Python
    (:class:`~tests.reference.network.ReferenceDuplexPath`) over
    :class:`ReferenceCellularLink` trace-driven links and the reference
    queues, its receivers are the reference receiver, and its senders
    build reference packets."""
    with mock.patch.multiple(repro.experiments.runner,
                             Simulator=ReferenceSimulator,
                             DuplexPath=ReferenceDuplexPath,
                             TcpReceiver=ReferenceTcpReceiver), \
            mock.patch.multiple(repro.sim.network,
                                CellularLink=ReferenceCellularLink,
                                DropTailQueue=ReferenceDropTailQueue,
                                CoDelQueue=ReferenceCoDelQueue), \
            mock.patch.object(repro.tcp.sender, "Packet", ReferencePacket):
        yield
