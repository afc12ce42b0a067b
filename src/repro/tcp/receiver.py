"""TCP receiver: cumulative + SACK acknowledgements with timestamp echo.

The receiver is deliberately *unmodified* TCP — a design requirement of
the paper (§4.2): PropRate must work against stock receivers, relying
only on the TCP timestamp option (enabled by default on Android and iOS)
and SACK.  Timestamps are quantised to the receiver's tick (10 ms on most
mobile devices), which is exactly the measurement noise the sender-side
estimators must live with.

Echo rules follow RFC 7323: an in-order segment (including one that fills
a hole) has its own TSval echoed; an out-of-order segment elicits a
duplicate ACK echoing the TSval of the last in-sequence segment — the
behaviour the paper's §4.1 loss handling describes.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.engine import Simulator
from repro.sim.packet import ACK_PACKET_BYTES, Packet, SackBlock
from repro.tcp.scoreboard import ReceiverScoreboard

#: Default receiver timestamp granularity (10 ms, paper §4.2).
DEFAULT_TS_GRANULARITY = 0.010

#: Maximum SACK blocks per ACK (TCP option space).
MAX_SACK_BLOCKS = 3

#: RFC 1122 delayed-ACK timer.
DELAYED_ACK_TIMEOUT = 0.040

DataCallback = Callable[[Packet, float], None]
AckSender = Callable[[Packet], None]


class TcpReceiver:
    """One flow's receiving endpoint.

    Parameters
    ----------
    sim:
        Event loop (for the clock).
    flow_id:
        Flow identifier copied onto generated ACKs.
    send_ack:
        Callable injecting an ACK into the reverse path.
    ts_granularity:
        Receiver timestamp clock tick in seconds.
    on_data:
        Optional metrics hook, called for every arriving data packet
        (including duplicates) with ``(packet, now)``.
    sack_enabled:
        Generate SACK blocks (on by default, as in the paper's setup).
    delayed_ack:
        RFC 1122 delayed ACKs: acknowledge every second in-order segment
        or after 40 ms, whichever first; out-of-order data is ACKed
        immediately (quickack).  Off by default — the paper's receivers
        ACK per packet during bulk transfers — but exercised by the
        robustness ablation, since sender-side rate estimation must
        survive coarser ACK streams.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        send_ack: AckSender,
        ts_granularity: float = DEFAULT_TS_GRANULARITY,
        on_data: Optional[DataCallback] = None,
        sack_enabled: bool = True,
        delayed_ack: bool = False,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.send_ack = send_ack
        self.ts_granularity = ts_granularity
        self.on_data = on_data
        self.sack_enabled = sack_enabled
        self.delayed_ack = delayed_ack
        self._unacked_segments = 0
        self._delack_event = None

        self.rcv_nxt = 0
        # Out-of-order store on the shared run representation — the
        # same interval runs as the sender's scoreboard, so generated
        # SACK blocks and the sender's SACKED runs are directly
        # comparable (and the auditor cross-checks them).
        self._ooo = ReceiverScoreboard()
        self._ts_recent = -1.0  # TSval of the last in-sequence segment (-1: none)
        self._last_ooo_seq: Optional[int] = None
        self.data_packets_received = 0
        self.duplicate_packets = 0
        self.unique_segments = 0

    # ------------------------------------------------------------------
    def receiver_timestamp(self) -> float:
        """The receiver's clock, quantised to its timestamp granularity."""
        g = self.ts_granularity
        if g <= 0:
            return self.sim.now
        return int(self.sim.now / g) * g

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Process an arriving data segment and emit an ACK."""
        if packet.is_ack:
            raise ValueError("receiver got an ACK packet")
        self.data_packets_received += 1
        now = self.sim.now
        if self.on_data is not None:
            self.on_data(packet, now)

        seq = packet.seq
        if seq == self.rcv_nxt:
            # In-order (possibly filling a hole): advance through the
            # out-of-order store and echo this segment's timestamp.
            self.unique_segments += 1
            nxt = seq + 1
            if self._ooo:
                nxt = self._ooo.first_gap_at_or_after(nxt)
                self._ooo.remove_below(nxt)
            self.rcv_nxt = nxt
            self._ts_recent = packet.tsval
            echo = packet.tsval
            # Filling a hole is acknowledged at once (RFC 5681 §4.2).
            in_order = nxt == seq + 1
        elif seq > self.rcv_nxt:
            if self._ooo.add(seq):
                self.unique_segments += 1
            else:
                self.duplicate_packets += 1
            self._last_ooo_seq = seq
            echo = self._ts_recent
            in_order = False
        else:
            # Below rcv_nxt: a duplicate (e.g. spurious retransmission),
            # answered with an immediate duplicate ACK.
            self.duplicate_packets += 1
            echo = self._ts_recent
            in_order = False

        if self.delayed_ack and in_order and not self._ooo:
            self._unacked_segments += 1
            if self._unacked_segments < 2:
                self._arm_delack(echo)
                return
        self._emit_ack(echo)

    def _arm_delack(self, echo: float) -> None:
        if self._delack_event is not None:
            self._delack_event.cancel()
        self._delack_event = self.sim.schedule(
            DELAYED_ACK_TIMEOUT, lambda e=echo: self._emit_ack(e)
        )

    def _emit_ack(self, echo: float) -> None:
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None
        self._unacked_segments = 0
        # make_ack_packet's fields plus the send time, positionally.
        self.send_ack(Packet(
            self.flow_id, 0, self.rcv_nxt, True, self.receiver_timestamp(),
            echo, self._sack_blocks() if self._ooo else [], ACK_PACKET_BYTES,
            self.sim.now,
        ))

    # ------------------------------------------------------------------
    def _sack_blocks(self) -> List[SackBlock]:
        """Up to 3 SACK blocks, the one with the latest arrival first.

        Only the run holding the newest arrival plus the highest few
        runs can appear, so the store is never fully materialised.
        """
        if not self.sack_enabled or not self._ooo:
            return []
        blocks: List[SackBlock] = []
        first: Optional[tuple] = None
        if self._last_ooo_seq is not None:
            first = self._ooo.interval_containing(self._last_ooo_seq)
            if first is not None:
                blocks.append(SackBlock(*first))
        for s, e in self._ooo.tail_intervals(MAX_SACK_BLOCKS + 1):
            if len(blocks) >= MAX_SACK_BLOCKS:
                break
            if first is not None and s == first[0]:
                continue
            blocks.append(SackBlock(s, e))
        return blocks
