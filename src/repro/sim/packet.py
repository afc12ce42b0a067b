"""Packets and TCP options used by the simulation.

The simulation models TCP segments at packet granularity: sequence numbers
count MSS-sized segments rather than bytes (``Packet.seq`` is a segment
index).  This keeps SACK scoreboards and retransmission bookkeeping simple
while preserving every signal the congestion-control algorithms consume:
cumulative ACK numbers, SACK blocks, and the TCP timestamp option
(TSval/TSecr) that PropRate's sender-side estimators rely on (paper §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim import _core

#: Maximum segment size: payload bytes carried by one data packet.
MSS = 1448

#: Wire size of a full data packet (payload + TCP/IP headers).
DATA_PACKET_BYTES = 1500

#: Wire size of a pure ACK (40 bytes of headers + options).
ACK_PACKET_BYTES = 60


@dataclass(frozen=True, slots=True)
class SackBlock:
    """A SACK block over segment indices: ``[start, end)`` received."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty SACK block [{self.start}, {self.end})")

    def __contains__(self, seq: int) -> bool:
        return self.start <= seq < self.end

    @property
    def count(self) -> int:
        return self.end - self.start


#: A simulated TCP packet (data segment or ACK), a C type
#: (``repro/sim/_core.c``; the dataclass it replaced is frozen in
#: ``tests/reference/packet.py``).  It is built as
#: ``Packet(flow_id, seq=0, ack=0, is_ack=False, tsval=0.0, tsecr=-1.0,
#: sacks=[], size=DATA_PACKET_BYTES, sent_time=0.0, retransmit=False,
#: uid=<next>, enqueue_time=None)``, positionally or by keyword, and
#: compares like the dataclass: equal when every field is.  Its fields:
#:
#: ``flow_id``
#:     Identifies the flow the packet belongs to; used to demultiplex
#:     when several flows share a bottleneck.
#: ``seq``
#:     Segment index for data packets; meaningless for pure ACKs.
#: ``ack``
#:     Cumulative ACK: the next segment index expected by the receiver.
#: ``is_ack``
#:     True for pure ACK packets travelling on the return path.
#: ``tsval`` / ``tsecr``
#:     TCP timestamp option.  On data packets ``tsval`` is the sender's
#:     clock when the packet was queued for delivery; on ACKs ``tsval`` is
#:     the *receiver's* clock (quantised to its timestamp granularity) and
#:     ``tsecr`` echoes the data packet's ``tsval`` per RFC 7323.
#: ``sacks``
#:     SACK blocks (on ACKs); a fresh list by default.
#: ``size``
#:     Wire size in bytes, used by links for byte accounting.
#: ``sent_time``
#:     Simulation time the packet was handed to the network by its origin
#:     host (set by the sender; used by metrics).
#: ``retransmit``
#:     True if this data packet is a retransmission.
#: ``uid``
#:     Unique, increasing in construction order.
#: ``enqueue_time``
#:     Time the packet entered the bottleneck queue (set by the queue).
Packet = _core.Packet

_core.configure(data_packet_bytes=DATA_PACKET_BYTES,
                ack_packet_bytes=ACK_PACKET_BYTES, sack_block=SackBlock)


def make_data_packet(
    flow_id: int,
    seq: int,
    now: float,
    tsecr: float = -1.0,
    retransmit: bool = False,
    size: int = DATA_PACKET_BYTES,
) -> Packet:
    """Build a data segment stamped with the sender clock."""
    # Positional: the field order of Packet (keyword binding costs more
    # than the rest of the constructor on the per-packet path).
    return Packet(flow_id, seq, 0, False, now, tsecr, [], size, now,
                  retransmit)


def make_ack_packet(
    flow_id: int,
    ack: int,
    receiver_ts: float,
    echoed_tsval: float,
    sacks: Optional[List[SackBlock]] = None,
) -> Packet:
    """Build a pure ACK carrying the receiver timestamp and SACK blocks."""
    return Packet(flow_id, 0, ack, True, receiver_ts, echoed_tsval,
                  list(sacks) if sacks else [], ACK_PACKET_BYTES)
