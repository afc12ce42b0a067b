"""The reference packet: :class:`Packet` as the dataclass it was before it
moved to C (``repro.sim._core.Packet``), kept verbatim with its own uid
counter.  The reference receiver builds its ACKs from it, and
:func:`tests.reference.link.python_core` makes the sender build its data
segments from it (tests/test_core_diff.py).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.packet import DATA_PACKET_BYTES, SackBlock

_packet_ids = itertools.count()


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
