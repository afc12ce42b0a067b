"""The delivery collector as one frozen record object per arrival.

``repro.metrics.collector.DeliveryCollector`` stores the same records
as ``array.array`` columns and bisects the time column for windows;
tests/test_metrics.py holds it to this form, which filters the record
list by a linear scan.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.metrics.collector import DeliveryRecord


class ReferenceCollector:
    """Accumulates delivery records for one flow."""

    def __init__(self) -> None:
        self._seen: Set[int] = set()
        self.records: List[DeliveryRecord] = []
        self.duplicates = 0

    def on_data(self, packet, now: float) -> None:
        """Receiver hook: called for every arriving data packet."""
        if packet.seq in self._seen:
            self.duplicates += 1
            return
        self._seen.add(packet.seq)
        self.records.append(
            DeliveryRecord(
                time=now,
                seq=packet.seq,
                one_way_delay=now - packet.sent_time,
                size=packet.size,
                was_retransmit=packet.retransmit,
            )
        )

    def delays(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> np.ndarray:
        """One-way delays of unique deliveries within ``[start, end)``."""
        return np.asarray(
            [
                r.one_way_delay
                for r in self.records
                if r.time >= start and (end is None or r.time < end)
            ]
        )

    def delivered_bytes(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> int:
        return sum(
            r.size
            for r in self.records
            if r.time >= start and (end is None or r.time < end)
        )

    def throughput(self, start: float, end: float) -> float:
        """Goodput in bytes/second over ``[start, end)``."""
        if end <= start:
            raise ValueError("end must exceed start")
        return self.delivered_bytes(start, end) / (end - start)

    def arrival_times(self) -> np.ndarray:
        return np.asarray([r.time for r in self.records])

    def __len__(self) -> int:
        return len(self.records)
