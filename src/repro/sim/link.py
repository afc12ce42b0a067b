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

The per-packet methods — ``enqueue``, ``_serve`` (with its delivery-group
push) and ``_pump_fire`` — are C, on ``repro.sim._core.Cellular`` (DESIGN.md,
"The packet core in C"); the Python they replaced is frozen in
``tests/reference/link.py``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.obs import (
    LINK_BATCH,
    LINK_HANDOVER,
    LINK_OUTAGE,
    LINK_RECOVER,
    current_profiler,
    current_tracer,
)
from repro.sim import _core
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

_core.configure(opportunity_bytes=OPPORTUNITY_BYTES, outage_gap=OUTAGE_GAP,
                batch_event_min=LINK_BATCH_EVENT_MIN)


class Link:
    """Common interface: ``enqueue`` a packet, ``on_deliver`` fires later."""

    # No instance layout of its own, so it combines with the C base of
    # CellularLink.
    __slots__ = ()

    def enqueue(self, packet: Packet) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Drop the references the link holds to itself (run end)."""


def _checked_prop_delay(link: str, value: float) -> float:
    """``value`` if it is a usable propagation delay, else ``ValueError``
    naming the link: a negative delay would schedule deliveries in the
    past."""
    if not value >= 0:
        raise ValueError(
            f"link {link!r}: prop_delay must be >= 0 seconds, got {value!r}")
    return value


class CellularLink(_core.Cellular, Link):
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
        self._prop_delay = _checked_prop_delay(name, prop_delay)
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
        # Zero-copy view of the schedule: scalar reads on this
        # per-packet path yield plain floats.  Shared across every link
        # replaying the same trace.
        self._times = schedule.times_view
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
        # Delivery pump: pending [time, packets, seq] groups
        # (time-ascending from _phead) drained by one self-re-arming
        # event.
        self._pending = []
        self._phead = 0
        self._pump_event = None
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
        self._prop_delay = _checked_prop_delay(self.name, value)
        tr = self._tracer
        if tr is not None and value != old:
            tr.emit(LINK_HANDOVER, self.sim.now, link=self.name,
                    prop_delay=value, delta=value - old)

    # ------------------------------------------------------------------
    def _next_opportunity_time(self) -> float:
        """Absolute time of the next unused delivery opportunity >= now.

        Fast-forwards over opportunities that elapsed while the queue was
        empty (they are wasted by definition; we count them lazily).
        """
        now = self.sim.now
        times = self._times
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
        if self._tracer is not None and not self._outage_open:
            gap = t - self.sim.now
            if gap >= OUTAGE_GAP:
                self._outage_open = True
                self._emit_outage(gap if t != _INF else None)
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
    # Telemetry, formatted here for the C service loop, which calls these
    # only while a tracer is attached.
    def _emit_recover(self) -> None:
        self._tracer.emit(LINK_RECOVER, self.sim.now, link=self.name,
                          queued=len(self.queue))

    def _emit_outage(self, gap: Optional[float]) -> None:
        self._tracer.emit(LINK_OUTAGE, self.sim.now, link=self.name,
                          gap=gap, queued=len(self.queue))

    def _emit_batch(self, opportunities: int, packets: int, nbytes: int,
                    span: float) -> None:
        self._tracer.emit(LINK_BATCH, self.sim.now, link=self.name,
                          opportunities=opportunities, packets=packets,
                          bytes=nbytes, span=span)

    def close(self) -> None:
        """Drop the link's bound methods of itself (run end).

        ``_serve_cb`` (and, under profiling, the wrapped ``_pump_fire``)
        is an instance attribute holding a bound method of the link: a
        loop that would keep a finished run alive until a full
        collection.  The counters stay readable.
        """
        self._serve_cb = None
        self.__dict__.pop("_pump_fire", None)

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
        self.prop_delay = _checked_prop_delay(name, prop_delay)
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
