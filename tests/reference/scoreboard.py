"""The reference sender scoreboard: one dict entry per sequence.

tests/test_scoreboard_diff.py runs it in lockstep with the interval-run
:class:`~repro.tcp.scoreboard.SenderScoreboard` inside a real sender.
"""

from repro.tcp.scoreboard import CANCELLED, LOST, RTX, SACKED


class ReferenceBoard:
    """The old per-segment state machine, one dict entry per sequence.

    Deliberately naive — O(segments) everywhere — so it cannot share a
    bug with the interval implementation.
    """

    def __init__(self):
        self.state = {}  # seq -> SACKED | LOST | RTX | CANCELLED

    # -- queries -------------------------------------------------------
    @property
    def clean(self):
        return not self.state

    @property
    def in_loss_recovery(self):
        return any(t != SACKED for t in self.state.values())

    @property
    def has_pending(self):
        return any(t == LOST for t in self.state.values())

    def next_pending(self, una):
        pend = [s for s, t in self.state.items() if t == LOST and s >= una]
        return min(pend) if pend else None

    def expected_pipe(self, una, next_seq):
        covered = sum(1 for s in self.state if una <= s < next_seq)
        rtx = sum(
            1 for s, t in self.state.items()
            if t == RTX and una <= s < next_seq
        )
        return (next_seq - una) - covered + rtx

    def to_dict(self, una, next_seq):
        return {s: t for s, t in self.state.items() if una <= s < next_seq}

    # -- transitions ---------------------------------------------------
    def sack_range(self, start, end):
        newly = drop = cancelled = 0
        for seq in range(start, end):
            t = self.state.get(seq)
            if t is None or t == RTX:
                self.state[seq] = SACKED
                newly += 1
                drop += 1
            elif t == LOST:
                self.state[seq] = CANCELLED
                newly += 1
                cancelled += 1
        return newly, drop, cancelled

    def mark_lost(self, start, end):
        marked = []
        for seq in range(start, end):
            if self.state.get(seq) is None:
                self.state[seq] = LOST
                marked.append(seq)
        return len(marked), _as_runs(marked)

    def ack_to(self, una, ack):
        covered = rtx = 0
        for seq in [s for s in self.state if s < ack]:
            t = self.state.pop(seq)
            covered += 1
            if t == RTX:
                rtx += 1
        return (ack - una) - covered + rtx

    def mark_rtx_sent(self, seq):
        if self.state.get(seq) == LOST:
            self.state[seq] = RTX

    def take_pending(self, una, limit):
        first = self.next_pending(una)
        if first is None:
            return None
        # Claim the contiguous pending run from its head, up to limit.
        seq = first
        while seq < first + limit and self.state.get(seq) == LOST:
            self.state[seq] = RTX
            seq += 1
        return (first, seq)

    def rto_requeue(self, una, next_seq):
        newly = 0
        for seq in range(una, next_seq):
            t = self.state.get(seq)
            if t is None or t == RTX:
                self.state[seq] = LOST
                newly += 1
        return newly


def _as_runs(seqs):
    """Merge a sorted seq list into (start, end, None) change runs."""
    runs = []
    for s in seqs:
        if runs and runs[-1][1] == s:
            runs[-1] = (runs[-1][0], s + 1, None)
        else:
            runs.append((s, s + 1, None))
    return [tuple(r) for r in runs]
