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

The per-packet methods — ``receive``, ``_emit_ack``,
``receiver_timestamp`` and ``_sack_blocks`` — are C, on
``repro.sim._core.Receiver`` (DESIGN.md, "The packet core in C"); the
Python they replaced is frozen in ``tests/reference/receiver.py``.  The
out-of-order store stays the shared :class:`ReceiverScoreboard`, which
the C calls only while it holds data, and the delayed-ACK timer stays
here.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim import _core
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.tcp.scoreboard import ReceiverScoreboard

#: Default receiver timestamp granularity (10 ms, paper §4.2).
DEFAULT_TS_GRANULARITY = 0.010

#: Maximum SACK blocks per ACK (TCP option space).
MAX_SACK_BLOCKS = 3

#: RFC 1122 delayed-ACK timer.
DELAYED_ACK_TIMEOUT = 0.040

DataCallback = Callable[[Packet, float], None]
AckSender = Callable[[Packet], None]

_core.configure(max_sack_blocks=MAX_SACK_BLOCKS)


class TcpReceiver(_core.Receiver):
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

    ``receive(packet)`` processes an arriving data segment and emits
    (or arms) its ACK; ``receiver_timestamp()`` is the receiver's clock
    quantised to its granularity, ``int(now / g) * g``; ``_sack_blocks()``
    lists up to :data:`MAX_SACK_BLOCKS` blocks, the run holding the
    newest out-of-order arrival first.  ``_sack_blocks`` and
    ``_arm_delack`` are looked up on the instance; the store is mutated
    only through ``receive`` (assigning ``_ooo`` re-reads it).
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
        self._last_ooo_seq = None
        self.data_packets_received = 0
        self.duplicate_packets = 0
        self.unique_segments = 0

    def _arm_delack(self, echo: float) -> None:
        if self._delack_event is not None:
            self._delack_event.cancel()
        self._delack_event = self.sim.schedule(
            DELAYED_ACK_TIMEOUT, lambda e=echo: self._emit_ack(e)
        )
