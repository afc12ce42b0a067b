"""Interval-run SACK scoreboards shared by sender, receiver and auditor.

One representation, four consumers.  Per-segment recovery state used to
be scattered across a per-seq dict (``_rtx_state``), a retransmission
heap, and a separate set of SACKed intervals, making every loss episode
O(window) per ACK.  Here the whole window is
a :class:`~repro.util.intervals.RunMap` of disjoint tagged runs:

* **untagged** — a plain in-flight transmission (contributes to pipe);
* :data:`SACKED` — delivered out of order, reported by a SACK block;
* :data:`LOST` — marked lost, retransmission pending (off the pipe);
* :data:`RTX` — retransmission in flight (contributes to pipe);
* :data:`CANCELLED` — marked lost but SACKed before the retransmission
  left (the spurious-mark case; stays off the pipe, never retransmits).

Loss marks, SACK folds, cumulative-ACK accounting, and RTO requeues are
all bulk run transitions (:meth:`RunMap.map_range`), so the cost of an
ACK during recovery scales with the number of *loss runs* in the
window, not the number of segments.  The transition tables below are
the single source of truth for the state machine; the sender turns the
returned transition pieces into pipe/loss counters, and the invariant
auditor re-derives the pipe from the same runs (:meth:`SenderScoreboard
.expected_pipe`) as an independent O(runs) reconstruction.

The receiver's out-of-order store (:class:`ReceiverScoreboard`) is the
same run representation with a single tag — which is exactly what makes
its SACK blocks, the sender's SACKED runs, and the auditor's
cross-checks directly comparable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.util.intervals import RunMap

__all__ = [
    "SACKED",
    "LOST",
    "RTX",
    "CANCELLED",
    "SenderScoreboard",
    "ReceiverScoreboard",
]

#: Segment delivered out of order (SACK block covered it).
SACKED = 1
#: Segment marked lost; retransmission pending.
LOST = 2
#: Retransmission in flight.
RTX = 3
#: Loss mark cancelled by a later SACK; nothing to retransmit.
CANCELLED = 4

TAG_NAMES: Dict[int, str] = {
    SACKED: "sacked",
    LOST: "lost",
    RTX: "rtx",
    CANCELLED: "cancelled",
}

#: SACK arrival: in-flight and retransmitted segments become SACKED
#: (leaving the pipe); a pending loss mark is cancelled instead —
#: the retransmission would have been spurious.
_SACK_TABLE = {None: SACKED, RTX: SACKED, LOST: CANCELLED}

#: Loss marking: only plain in-flight segments are markable; SACKed,
#: already-marked, retransmitted and cancelled segments are skipped.
_MARK_TABLE = {None: LOST}

#: RTO collapse: everything that might still be in the network is
#: requeued; SACKed data is safe and cancelled/pending marks persist.
_RTO_TABLE = {None: LOST, RTX: LOST}


class SenderScoreboard:
    """The sender's loss-recovery scoreboard as tagged interval runs.

    Segments below ``snd_una`` are never represented (cumulative ACKs
    clear them), and untagged segments inside the window are plain
    in-flight transmissions, so an entirely loss-free window is an
    *empty* scoreboard — the loss-free ACK fast path is ``clean``.

    The scoreboard holds no counters of its own: every mutator returns
    the aggregate effect (newly covered segments, pipe decrement,
    cancelled marks) and the sender keeps ``pipe`` / ``lost_total`` /
    ``spurious_marks`` exactly as before, which is what keeps results
    bit-identical to the per-segment implementation.
    """

    __slots__ = ("_map", "_floor")

    def __init__(self) -> None:
        self._map = RunMap()
        #: No pending (LOST) segment lies below this sequence.  Lowered
        #: by the two transitions that create pending segments
        #: (``mark_lost``, ``rto_requeue``), raised by each claim, so a
        #: paced sender's one-segment claims resume where the last one
        #: ended instead of re-walking the recovered prefix.
        self._floor = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def clean(self) -> bool:
        """True when the window holds nothing but in-flight segments."""
        return not self._map

    @property
    def in_loss_recovery(self) -> bool:
        """True while any loss mark, retransmission, or cancellation
        is still below the highest cumulative ACK edge."""
        m = self._map
        return bool(m.count(LOST) or m.count(RTX) or m.count(CANCELLED))

    @property
    def has_pending(self) -> bool:
        """True when at least one retransmission is queued (O(1))."""
        return self._map.count(LOST) > 0

    def is_sacked(self, seq: int) -> bool:
        return self._map.get(seq) in (SACKED, CANCELLED)

    def state(self, seq: int) -> Optional[int]:
        """The tag at ``seq`` (None = plain in-flight)."""
        return self._map.get(seq)

    @property
    def runs(self) -> List[Tuple[int, int, int]]:
        """All tagged runs as ``(start, end, tag)`` (audit/telemetry)."""
        return self._map.runs

    def segments(self, start: int, end: int) -> Iterator[
            Tuple[int, int, Optional[int]]]:
        """Tile ``[start, end)`` into ``(s, e, tag)`` pieces."""
        return self._map.segments(start, end)

    def next_pending(self, una: int) -> Optional[int]:
        """Lowest segment >= ``una`` awaiting retransmission (O(1) when
        none is pending — the common case on the transmit path)."""
        return self._map.first_tag(LOST, una)

    def expected_pipe(self, una: int, next_seq: int) -> int:
        """O(runs) pipe reconstruction: one outstanding transmission per
        untagged segment, plus one per retransmission in flight."""
        covered = 0
        rtx = 0
        for s, e, t in self._map.runs:
            covered += e - s
            if t == RTX:
                rtx += e - s
        return (next_seq - una) - covered + rtx

    def check(self) -> None:
        """Verify run-structure invariants (audit aid)."""
        self._map.check()

    def to_dict(self, una: int, next_seq: int) -> Dict[int, int]:
        """Expand to a per-seq tag map over ``[una, next_seq)`` (tests)."""
        out: Dict[int, int] = {}
        for s, e, t in self._map.segments(una, next_seq):
            if t is not None:
                for seq in range(s, e):
                    out[seq] = t
        return out

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def sack_range(self, start: int, end: int) -> Tuple[int, int, int]:
        """Fold one SACK block range into the scoreboard.

        Returns ``(newly_sacked, pipe_drop, cancelled)``: how many
        segments were newly covered, how many of those leave the pipe
        (in-flight or retransmitted), and how many pending loss marks
        the block cancelled (spurious marks).
        """
        changed = self._map.map_range(start, end, _SACK_TABLE)
        if not changed:
            return 0, 0, 0
        newly = pipe_drop = cancelled = 0
        for s, e, old in changed:
            width = e - s
            newly += width
            if old is None or old == RTX:
                pipe_drop += width
            else:  # LOST -> CANCELLED
                cancelled += width
        return newly, pipe_drop, cancelled

    def mark_lost(self, start: int, end: int) -> Tuple[
            int, List[Tuple[int, int, Optional[int]]]]:
        """Mark the markable (plain in-flight) segments of ``[start,
        end)`` lost; returns ``(newly_lost, marked_runs)``."""
        changed = self._map.map_range(start, end, _MARK_TABLE)
        if not changed:
            return 0, changed
        if changed[0][0] < self._floor:
            self._floor = changed[0][0]
        return sum(e - s for s, e, _ in changed), changed

    def ack_to(self, una: int, ack: int) -> int:
        """Consume a cumulative ACK advancing ``una`` to ``ack``.

        Clears every run below ``ack`` and returns the pipe decrement:
        untagged (in-flight) segments plus retransmissions in flight.
        SACKed, pending-lost and cancelled segments already left the
        pipe when they were tagged.
        """
        removed = self._map.clear_below(ack)
        covered = sum(removed.values())
        return (ack - una) - covered + removed.get(RTX, 0)

    def mark_rtx_sent(self, seq: int) -> None:
        """A pending retransmission for ``seq`` just left the host."""
        self._map.map_range(seq, seq + 1, {LOST: RTX})

    def take_pending(self, una: int, limit: int) -> Optional[Tuple[int, int]]:
        """Claim up to ``limit`` pending segments for retransmission.

        Retags the head of the lowest pending run at/after ``una`` as
        in-flight retransmissions and returns the claimed ``(start,
        end)`` range (None when nothing is pending).  Equivalent to a
        ``next_pending`` + ``mark_rtx_sent`` loop, but one run-boundary
        adjustment claims the whole batch — the transmit path stays
        O(1) per run rather than O(1) per segment.

        The search resumes at the pending floor, so ``una`` must not
        decrease between calls (a cumulative-ACK edge never does).
        """
        floor = self._floor
        run = self._map.claim_first(
            LOST, RTX, una if una > floor else floor, limit)
        if run is not None:
            self._floor = run[1]
        return run

    def rto_requeue(self, una: int, next_seq: int) -> int:
        """Retransmission timeout: requeue the whole outstanding window.

        Everything that might still be in the network (in-flight or
        retransmitted) is marked lost again; SACKed data is safe, and
        existing pending/cancelled marks persist.  Returns how many
        segments are newly counted lost.
        """
        changed = self._map.map_range(una, next_seq, _RTO_TABLE)
        if changed and changed[0][0] < self._floor:
            self._floor = changed[0][0]
        return sum(e - s for s, e, _ in changed)


class ReceiverScoreboard:
    """The receiver's out-of-order store on the same run representation.

    A single-tag scoreboard: a segment is either received-out-of-order
    (one run) or missing (a gap).  Using :class:`RunMap` rather than a
    plain interval set keeps the representation — and the audit helpers
    — identical to the sender's side, so the auditor can check that
    generated SACK blocks are exact subsets of these runs.
    """

    __slots__ = ("_map",)

    #: The single tag carried by received-out-of-order runs.
    RECEIVED = 1

    def __init__(self) -> None:
        self._map = RunMap()

    def __bool__(self) -> bool:
        return bool(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, seq: int) -> bool:
        return self._map.get(seq) is not None

    @property
    def intervals(self) -> List[Tuple[int, int]]:
        return [(s, e) for s, e, _ in self._map.runs]

    @property
    def min(self) -> int:
        return self._map.min

    def add(self, seq: int) -> bool:
        """Store one out-of-order segment; True if it was new."""
        return bool(self._map.map_range(seq, seq + 1, {None: self.RECEIVED}))

    def remove_below(self, bound: int) -> int:
        """Drop all segments < ``bound`` (consumed by rcv_nxt advance)."""
        return sum(self._map.clear_below(bound).values())

    def first_gap_at_or_after(self, value: int) -> int:
        """Smallest sequence >= ``value`` not yet received."""
        return self._map.first_gap_at_or_after(value)

    def interval_containing(self, seq: int) -> Optional[Tuple[int, int]]:
        """The stored ``(start, end)`` run covering ``seq``, or None."""
        run = self._map.run_at(seq)
        if run is None:
            return None
        return (run[0], run[1])

    def tail_intervals(self, k: int) -> List[Tuple[int, int]]:
        """The ``k`` highest runs, descending, without a full copy
        (SACK blocks only ever need the newest few)."""
        return [(s, e) for s, e, _ in reversed(self._map.tail_runs(k))]

    def contains_range(self, start: int, end: int) -> bool:
        """True when every segment of ``[start, end)`` is stored."""
        if end <= start:
            return True
        for s, e, t in self._map.segments(start, end):
            if t is None:
                return False
        return True

    def check(self) -> None:
        self._map.check()
