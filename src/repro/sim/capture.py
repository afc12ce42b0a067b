"""Packet capture: a tcpdump-lite for the simulator.

The paper's measurements were taken with tcpdump; debugging a
congestion-control loop in simulation needs the same visibility.  A
:class:`PacketCapture` tees a link's (or path's) packet stream into an
in-memory log that can be filtered, summarised, and written out in a
one-line-per-packet text format.

Typical use::

    capture = PacketCapture()
    path = DuplexPath(sim, config)
    capture.tap_path(path)
    ... run ...
    capture.save("flow.pcaplite")
    print(capture.summary())
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Union

from repro.sim.packet import Packet

if TYPE_CHECKING:
    from repro.sim.network import DuplexPath


@dataclass(frozen=True)
class CaptureRecord:
    """One packet observation at a named tap point."""

    time: float
    point: str
    flow_id: int
    kind: str          # "data", "rtx" or "ack"
    seq: int
    ack: int
    size: int
    tsval: float
    tsecr: float
    sack_blocks: int

    def format(self) -> str:
        if self.kind == "ack":
            extra = f"ack={self.ack} sacks={self.sack_blocks}"
        else:
            extra = f"seq={self.seq}"
        return (
            f"{self.time:12.6f} {self.point:12s} flow={self.flow_id} "
            f"{self.kind:4s} {extra} len={self.size} "
            f"tsval={self.tsval:.3f} tsecr={self.tsecr:.3f}"
        )


def _record(time: float, point: str, packet: Packet) -> CaptureRecord:
    if packet.is_ack:
        kind = "ack"
    elif packet.retransmit:
        kind = "rtx"
    else:
        kind = "data"
    return CaptureRecord(
        time=time,
        point=point,
        flow_id=packet.flow_id,
        kind=kind,
        seq=packet.seq,
        ack=packet.ack,
        size=packet.size,
        tsval=packet.tsval,
        tsecr=packet.tsecr,
        sack_blocks=len(packet.sacks),
    )


class PacketCapture:
    """Accumulates :class:`CaptureRecord` objects from tap points."""

    def __init__(self, limit: Optional[int] = None) -> None:
        self.records: List[CaptureRecord] = []
        self.limit = limit
        self.dropped_records = 0

    # ------------------------------------------------------------------
    # Tapping
    # ------------------------------------------------------------------
    def tap(
        self, sink: Callable[[Packet], None], point: str, clock: Any
    ) -> Callable[[Packet], None]:
        """Wrap a packet sink so traversals are recorded.

        ``clock`` is any object with a ``now`` attribute (the simulator).
        """

        def tapped(packet: Packet) -> None:
            self._add(_record(clock.now, point, packet))
            sink(packet)

        return tapped

    def tap_path(self, path: DuplexPath) -> None:
        """Record every delivery out of a DuplexPath's two links."""
        sim = path.sim
        for link, point in (
            (path.forward_link, "downlink"),
            (path.reverse_link, "uplink"),
        ):
            original = link.on_deliver
            if original is None:
                continue
            link.on_deliver = self.tap(original, point, sim)

    def _add(self, record: CaptureRecord) -> None:
        if self.limit is not None and len(self.records) >= self.limit:
            self.dropped_records += 1
            return
        self.records.append(record)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(
        self,
        flow_id: Optional[int] = None,
        kind: Optional[str] = None,
        point: Optional[str] = None,
    ) -> List[CaptureRecord]:
        out = self.records
        if flow_id is not None:
            out = [r for r in out if r.flow_id == flow_id]
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if point is not None:
            out = [r for r in out if r.point == point]
        return list(out)

    def summary(self) -> str:
        counts = {}
        for r in self.records:
            key = (r.point, r.kind)
            counts[key] = counts.get(key, 0) + 1
        lines = [f"{len(self.records)} packets captured"]
        for (point, kind), n in sorted(counts.items()):
            lines.append(f"  {point:12s} {kind:4s} {n}")
        if self.dropped_records:
            lines.append(f"  ({self.dropped_records} over capture limit)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        with open(path, "w", encoding="ascii") as fh:
            self.write(fh)

    def write(self, fh: io.TextIOBase) -> None:
        for record in self.records:
            fh.write(record.format() + "\n")
