"""Packets and TCP options used by the simulation.

The simulation models TCP segments at packet granularity: sequence numbers
count MSS-sized segments rather than bytes (``Packet.seq`` is a segment
index).  This keeps SACK scoreboards and retransmission bookkeeping simple
while preserving every signal the congestion-control algorithms consume:
cumulative ACK numbers, SACK blocks, and the TCP timestamp option
(TSval/TSecr) that PropRate's sender-side estimators rely on (paper §4.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

#: Maximum segment size: payload bytes carried by one data packet.
MSS = 1448

#: Wire size of a full data packet (payload + TCP/IP headers).
DATA_PACKET_BYTES = 1500

#: Wire size of a pure ACK (40 bytes of headers + options).
ACK_PACKET_BYTES = 60

_packet_ids = itertools.count()


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


@dataclass(slots=True)
class Packet:
    """A simulated TCP packet (data segment or ACK).

    Attributes
    ----------
    flow_id:
        Identifies the flow the packet belongs to; used to demultiplex
        when several flows share a bottleneck.
    seq:
        Segment index for data packets; meaningless for pure ACKs.
    ack:
        Cumulative ACK: the next segment index expected by the receiver.
    is_ack:
        True for pure ACK packets travelling on the return path.
    tsval / tsecr:
        TCP timestamp option.  On data packets ``tsval`` is the sender's
        clock when the packet was queued for delivery; on ACKs ``tsval``
        is the *receiver's* clock (quantised to its timestamp granularity)
        and ``tsecr`` echoes the data packet's ``tsval`` per RFC 7323.
    sacks:
        SACK blocks (on ACKs).
    size:
        Wire size in bytes, used by links for byte accounting.
    sent_time:
        Simulation time the packet was handed to the network by its
        origin host (set by the sender; used by metrics).
    retransmit:
        True if this data packet is a retransmission.
    """

    flow_id: int
    seq: int = 0
    ack: int = 0
    is_ack: bool = False
    tsval: float = 0.0
    tsecr: float = -1.0
    sacks: List[SackBlock] = field(default_factory=list)
    size: int = DATA_PACKET_BYTES
    sent_time: float = 0.0
    retransmit: bool = False
    uid: int = field(default_factory=_packet_ids.__next__)
    #: Time the packet entered the bottleneck queue (set by the queue).
    enqueue_time: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_ack:
            return f"<ACK flow={self.flow_id} ack={self.ack} ts={self.tsval:.3f}>"
        kind = "RTX" if self.retransmit else "DATA"
        return f"<{kind} flow={self.flow_id} seq={self.seq}>"


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
