"""Bottleneck queues: finite drop-tail FIFO and CoDel AQM.

The paper's evaluation uses a 2,000-packet drop-tail buffer (the authors'
enhancement of Cellsim, sized per the base-station measurement study the
paper cites).  The CoDel queue implements the §6 discussion experiment on
shallow buffers and active queue management.

The FIFO itself is C, ``repro.sim._core.DropTail`` (DESIGN.md, "The packet
core in C"; the Python it replaced is frozen in
``tests/reference/queues.py``): ``push``, ``pop``, ``drain_opportunity``,
``peek``, ``len`` and the counters.  :class:`CoDelQueue` overrides ``pop``
and ``drain_opportunity`` in Python on the same base.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim import _core
from repro.sim.packet import Packet

#: Default bottleneck buffer size used throughout the evaluation (packets).
DEFAULT_BUFFER_PACKETS = 2000

DropCallback = Callable[[Packet], None]


class DropTailQueue(_core.DropTail):
    """A FIFO queue that drops arriving packets when full.

    ``capacity`` is in packets, matching how Cellsim and base-station
    buffers are sized in the paper.  A drop callback can be registered to
    feed loss metrics.

    Counters, all exact (the auditor's conservation invariants read
    them): ``drops`` and ``enqueued`` packets, ``bytes`` queued now and
    ``enqueued_bytes`` ever accepted.  ``sojourn_max`` is the largest
    ``now - enqueue_time`` of any packet dequeued (by ``pop`` or
    ``drain_opportunity``) since it was last set to -1.0; the auditor
    reads and resets it at each fold (DESIGN.md §7).
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
        if sojourn < self.target or len(self) == 0:
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
