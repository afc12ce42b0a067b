"""The reference queues: :class:`DropTailQueue` as the Python it was
before its FIFO moved to C (``repro.sim._core.DropTail``), and
:class:`CoDelQueue` over it, kept verbatim.

The one addition is the ``sojourn_max`` counter the C queue keeps for the
auditor (``_sojourn``, called where the auditor's ``pop`` and
``drain_opportunity`` instance taps measured), so an audited run on the
reference core reads the same ground truth.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.sim.packet import Packet
from repro.sim.queues import DEFAULT_BUFFER_PACKETS

DropCallback = Callable[[Packet], None]


class DropTailQueue:
    """A FIFO queue that drops arriving packets when full.

    ``capacity`` is in packets, matching how Cellsim and base-station
    buffers are sized in the paper.  A drop callback can be registered to
    feed loss metrics.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_BUFFER_PACKETS,
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.on_drop = on_drop
        self._queue: Deque[Packet] = deque()
        self.drops = 0
        self.enqueued = 0
        #: Incremental byte accounting (kept exact for the auditor's
        #: byte-conservation invariant): bytes currently queued and
        #: total bytes ever accepted.
        self.bytes = 0
        self.enqueued_bytes = 0
        #: Added with the C queue: the largest ``now - enqueue_time``
        #: dequeued since the auditor last reset it (-1.0: none).
        self.sojourn_max = -1.0

    def push(self, packet: Packet, now: float) -> bool:
        """Enqueue ``packet``; returns False (and drops) if the queue is full."""
        if len(self._queue) >= self.capacity:
            self.drops += 1
            if self.on_drop is not None:
                self.on_drop(packet)
            return False
        packet.enqueue_time = now
        self._queue.append(packet)
        self.enqueued += 1
        self.bytes += packet.size
        self.enqueued_bytes += packet.size
        return True

    def pop(self, now: float) -> Optional[Packet]:
        """Dequeue the head packet, or None if empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.bytes -= packet.size
        self._sojourn(packet, now)
        return packet

    def drain_opportunity(self, now: float, budget: int) -> List[Packet]:
        """Dequeue the head packets fitting one delivery opportunity.

        Pop while the head fits the remaining byte ``budget``, in one
        call so the link pays a single method dispatch per opportunity.
        For a plain drop-tail queue this bypasses :meth:`peek`/:meth:`pop`
        entirely (the auditor taps this method too, so accounting still
        sees every dequeue).
        """
        q = self._queue
        out: List[Packet] = []
        while q:
            head = q[0]
            size = head.size
            if size > budget:
                break
            q.popleft()
            self.bytes -= size
            budget -= size
            out.append(head)
            self._sojourn(head, now)
        return out

    def _sojourn(self, packet: Packet, now: float) -> None:
        """Added with the C queue: what the auditor's taps measured."""
        enq = packet.enqueue_time
        if enq is not None and now - enq > self.sojourn_max:
            self.sojourn_max = now - enq

    def peek(self) -> Optional[Packet]:
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_length(self) -> int:
        return self.bytes


class CoDelQueue(DropTailQueue):
    """Controlled-Delay AQM (Nichols & Jacobson, 2012) on top of drop-tail.

    Implements the standard CoDel dequeue-side control law: when the
    sojourn time of dequeued packets has exceeded ``target`` continuously
    for at least ``interval``, enter the dropping state and drop packets
    at times spaced by ``interval / sqrt(count)``.

    Used only for the §6 discussion experiment; the main evaluation uses
    plain :class:`DropTailQueue`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_BUFFER_PACKETS,
        target: float = 0.005,
        interval: float = 0.100,
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        super().__init__(capacity=capacity, on_drop=on_drop)
        self.target = target
        self.interval = interval
        self._first_above_time = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._count = 0
        self._last_count = 0
        self.codel_drops = 0
        self.codel_dropped_bytes = 0

    # ------------------------------------------------------------------
    def _control_law(self, t: float) -> float:
        return t + self.interval / (self._count ** 0.5)

    def _should_drop(self, packet: Packet, now: float) -> bool:
        """Update the 'sojourn above target' tracking for one dequeue."""
        sojourn = now - (packet.enqueue_time or now)
        if sojourn < self.target or len(self._queue) == 0:
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            return False
        return now >= self._first_above_time

    def pop(self, now: float) -> Optional[Packet]:
        packet = super().pop(now)
        if packet is None:
            self._dropping = False
            return None

        ok_to_drop = self._should_drop(packet, now)
        if self._dropping:
            if not ok_to_drop:
                self._dropping = False
            else:
                while self._dropping and now >= self._drop_next:
                    self._drop_packet(packet)
                    self._count += 1
                    packet = super().pop(now)
                    if packet is None or not self._should_drop(packet, now):
                        self._dropping = False
                        return packet
                    self._drop_next = self._control_law(self._drop_next)
        elif ok_to_drop:
            self._drop_packet(packet)
            packet = super().pop(now)
            self._dropping = True
            # Start with a count related to the last dropping interval so
            # repeated congestion ramps the drop rate (per the CoDel paper).
            delta = self._count - self._last_count
            if delta > 1 and now - self._drop_next < 16 * self.interval:
                self._count = delta
            else:
                self._count = 1
            self._last_count = self._count
            self._drop_next = self._control_law(now)
        return packet

    def drain_opportunity(self, now: float, budget: int) -> List[Packet]:
        """CoDel must keep its dequeue-side control law: peek for the
        budget check, then a stateful :meth:`pop` that may drop and
        substitute packets."""
        out: List[Packet] = []
        while True:
            head = self.peek()
            if head is None or head.size > budget:
                break
            packet = self.pop(now)
            if packet is None:
                break
            budget -= packet.size
            out.append(packet)
        return out

    def _drop_packet(self, packet: Packet) -> None:
        self.codel_drops += 1
        self.codel_dropped_bytes += packet.size
        self.drops += 1
        if self.on_drop is not None:
            self.on_drop(packet)
