"""Per-flow delivery records.

A :class:`DeliveryCollector` hangs off a receiver's ``on_data`` hook and
records the *first* delivery of each segment: its arrival time and its
true one-way delay (arrival time minus the sender's transmission
timestamp — ground truth, unaffected by the receiver's quantised TCP
timestamps).  Duplicate arrivals (spurious retransmissions) are counted
but excluded from delay statistics and throughput, mirroring how the
paper measures goodput and per-packet delay with tcpdump.

The records are stored as five ``array.array`` columns rather than one
object per delivery: an append is five C-level stores with no Python
frame and no boxed floats.  Arrivals come off the simulator clock, so
the time column is nondecreasing and window bounds are found by
bisection.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.sim.packet import Packet


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """One unique segment delivery."""

    time: float
    seq: int
    one_way_delay: float
    size: int
    was_retransmit: bool


class DeliveryCollector:
    """Accumulates delivery records for one flow.

    ``on_data`` must be fed nondecreasing arrival times (the receiver
    passes the simulator clock).
    """

    def __init__(self) -> None:
        self._seen: Set[int] = set()
        self._time = array("d")
        self._seq = array("q")
        self._delay = array("d")
        self._size = array("q")
        self._rtx = array("b")
        self.duplicates = 0

    def on_data(self, packet: Packet, now: float) -> None:
        """Receiver hook: called for every arriving data packet."""
        seq = packet.seq
        seen = self._seen
        if seq in seen:
            self.duplicates += 1
            return
        seen.add(seq)
        self._time.append(now)
        self._seq.append(seq)
        self._delay.append(now - packet.sent_time)
        self._size.append(packet.size)
        self._rtx.append(packet.retransmit)

    @property
    def records(self) -> List[DeliveryRecord]:
        """Every unique delivery in arrival order, as a fresh list."""
        return [
            DeliveryRecord(t, q, d, s, bool(r))
            for t, q, d, s, r in zip(self._time, self._seq, self._delay,
                                     self._size, self._rtx)
        ]

    # ------------------------------------------------------------------
    def _window(self, start: float, end: Optional[float]) -> Tuple[int, int]:
        """Index range of the records with ``start <= time < end``."""
        times = self._time
        lo = bisect_left(times, start)
        hi = len(times) if end is None else bisect_left(times, end)
        return lo, hi

    def delays(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> np.ndarray:
        """One-way delays of unique deliveries within ``[start, end)``."""
        lo, hi = self._window(start, end)
        return np.array(self._delay[lo:hi], dtype=np.float64)

    def delivered_bytes(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> int:
        lo, hi = self._window(start, end)
        return sum(self._size[lo:hi])

    def throughput(self, start: float, end: float) -> float:
        """Goodput in bytes/second over ``[start, end)``."""
        if end <= start:
            raise ValueError("end must exceed start")
        return self.delivered_bytes(start, end) / (end - start)

    def arrival_times(self) -> np.ndarray:
        return np.array(self._time, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._time)
