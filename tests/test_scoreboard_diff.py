"""Differential test: interval-run scoreboard vs a naive per-seq model.

The run-based :class:`~repro.tcp.scoreboard.SenderScoreboard` replaced
a per-segment dict + retransmission heap and is required to be
*bit-identical* to it.  This harness runs a naive per-seq reference
implementation of the same state machine in lockstep with the interval
one inside a real :class:`~repro.tcp.sender.TcpSender` over randomized
seeded loss / reorder / blackout schedules, asserting after every
scoreboard operation that

* every mutator returned exactly the same value from both boards;
* the full per-seq state dump is identical;
* the run structure verifies (``check()``);
* the sender's incremental pipe equals the scoreboard reconstruction
  at every ACK.

The scoreboard resumes its search for pending segments at a floor (no
pending segment lies below it); the scripted and randomized board-level
schedules at the end of this file put the floor in every position a
transition can leave it in.
"""

import random

import pytest

from repro.sim.engine import Simulator
from repro.tcp.congestion.base import (
    RateCongestionControl,
    WindowCongestionControl,
)
from repro.tcp.receiver import TcpReceiver
from repro.tcp.scoreboard import SenderScoreboard
from repro.tcp.sender import TcpSender
from tests.reference.scoreboard import ReferenceBoard


class MirrorBoard:
    """Delegates every operation to both boards and asserts agreement."""

    def __init__(self):
        self.real = SenderScoreboard()
        self.ref = ReferenceBoard()
        self.hi = 0  # one past the highest sequence ever touched
        self.ops = 0
        self.claims = []  # every non-empty take_pending result, in order

    def _sync(self):
        self.ops += 1
        self.real.check()
        assert self.real.to_dict(0, self.hi) == self.ref.to_dict(0, self.hi)

    def _touch(self, *bounds):
        for b in bounds:
            if b > self.hi:
                self.hi = b

    # -- queries (compared, no state change) ---------------------------
    @property
    def clean(self):
        a, b = self.real.clean, self.ref.clean
        assert a == b
        return a

    @property
    def in_loss_recovery(self):
        a, b = self.real.in_loss_recovery, self.ref.in_loss_recovery
        assert a == b
        return a

    @property
    def has_pending(self):
        a, b = self.real.has_pending, self.ref.has_pending
        assert a == b
        return a

    def next_pending(self, una):
        a, b = self.real.next_pending(una), self.ref.next_pending(una)
        assert a == b
        return a

    def expected_pipe(self, una, next_seq):
        a = self.real.expected_pipe(una, next_seq)
        b = self.ref.expected_pipe(una, next_seq)
        assert a == b
        return a

    def check(self):
        self.real.check()

    def to_dict(self, una, next_seq):
        return self.real.to_dict(una, next_seq)

    # -- transitions ---------------------------------------------------
    def sack_range(self, start, end):
        self._touch(end)
        a, b = self.real.sack_range(start, end), self.ref.sack_range(start, end)
        assert a == b, f"sack_range({start},{end}): {a} != {b}"
        self._sync()
        return a

    def mark_lost(self, start, end):
        self._touch(end)
        a, b = self.real.mark_lost(start, end), self.ref.mark_lost(start, end)
        assert a == b, f"mark_lost({start},{end}): {a} != {b}"
        self._sync()
        return a

    def ack_to(self, una, ack):
        a, b = self.real.ack_to(una, ack), self.ref.ack_to(una, ack)
        assert a == b, f"ack_to({una},{ack}): {a} != {b}"
        self._sync()
        return a

    def mark_rtx_sent(self, seq):
        self.real.mark_rtx_sent(seq)
        self.ref.mark_rtx_sent(seq)
        self._sync()

    def take_pending(self, una, limit):
        a = self.real.take_pending(una, limit)
        b = self.ref.take_pending(una, limit)
        assert a == b, f"take_pending({una},{limit}): {a} != {b}"
        self._sync()
        if a is not None:
            self.claims.append(a)
        return a

    def rto_requeue(self, una, next_seq):
        a = self.real.rto_requeue(una, next_seq)
        b = self.ref.rto_requeue(una, next_seq)
        assert a == b, f"rto_requeue({una},{next_seq}): {a} != {b}"
        self._sync()
        return a


class _Window(WindowCongestionControl):
    name = "fixed"

    def __init__(self, cwnd):
        super().__init__()
        self.cwnd = cwnd
        self.ssthresh = float("inf")


class _Rate(RateCongestionControl):
    name = "fixed-rate"

    def __init__(self, rate):
        super().__init__()
        self.pacing_rate = rate


class _ChaosWire:
    """Seeded loss + reorder + blackout schedule."""

    def __init__(self, sim, seed, drop_p, jitter, dark_period, dark_len):
        self.sim = sim
        self.rng = random.Random(seed)
        self.drop_p = drop_p
        self.jitter = jitter
        self.dark_period = dark_period
        self.dark_len = dark_len
        self.receiver = None
        self.sender = None

    def _dark(self):
        if not self.dark_period:
            return False
        return (self.sim.now % self.dark_period) > (
            self.dark_period - self.dark_len
        )

    def send_data(self, pkt):
        if self._dark():
            return
        if not pkt.retransmit and self.rng.random() < self.drop_p:
            return
        delay = 0.02 + self.rng.random() * self.jitter
        self.sim.schedule(delay, lambda p=pkt: self.receiver.receive(p))

    def send_ack(self, pkt):
        if self._dark():
            return
        self.sim.schedule(0.02, lambda p=pkt: self.sender.on_ack_packet(p))


SCHEDULES = [
    # (seed, drop_p, jitter, dark_period, dark_len)
    pytest.param((1, 0.05, 0.0, 0.0, 0.0), id="random-loss"),
    pytest.param((2, 0.02, 0.015, 0.0, 0.0), id="reorder-spurious"),
    pytest.param((3, 0.0, 0.0, 1.0, 0.3), id="blackout-rto"),
    pytest.param((4, 0.08, 0.01, 1.5, 0.2), id="loss-reorder-blackout"),
    pytest.param((5, 0.3, 0.02, 0.8, 0.4), id="pathological"),
]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_interval_board_matches_reference(schedule):
    seed, drop_p, jitter, dark_period, dark_len = schedule
    sim = Simulator()
    wire = _ChaosWire(sim, seed, drop_p, jitter, dark_period, dark_len)
    wire.receiver = TcpReceiver(
        sim, 0, send_ack=wire.send_ack, ts_granularity=0.0
    )
    sender = TcpSender(sim, 0, _Window(40), send_packet=wire.send_data)
    wire.sender = sender
    mirror = MirrorBoard()
    sender.scoreboard = mirror

    pipe_checks = [0]
    inner = sender.on_ack_packet

    def checked_ack(pkt):
        inner(pkt)
        # The incremental pipe must equal the reconstruction (which the
        # mirror itself asserts across both boards) at every ACK.
        assert sender._pipe == sender.debug_expected_pipe()
        pipe_checks[0] += 1

    sender.on_ack_packet = checked_ack
    sender.start()
    sim.run(until=4.0)

    assert pipe_checks[0] > 50, "schedule produced too few ACKs to matter"
    assert mirror.ops > 100, "schedule never exercised the scoreboard"
    if dark_period:
        assert sender.rto_count >= 1, "blackout schedule produced no RTO"
    if jitter and drop_p:
        assert sender.lost_total > 0


def test_spurious_cancellation_differential():
    """Reorder-heavy *paced* schedule must exercise CANCELLED.

    A window-based sender refills retransmissions inside the same ACK
    processing that marked them, so LOST never lingers; a rate-paced
    sender queues marks until the next pacing tick, leaving a window
    where a late-arriving original is SACKed and cancels the mark.
    """
    sim = Simulator()
    wire = _ChaosWire(sim, 7, 0.1, 0.1, 0.0, 0.0)
    wire.receiver = TcpReceiver(
        sim, 0, send_ack=wire.send_ack, ts_granularity=0.0
    )
    sender = TcpSender(sim, 0, _Rate(1_500_000.0), send_packet=wire.send_data)
    wire.sender = sender
    mirror = MirrorBoard()
    sender.scoreboard = mirror
    sender.start()
    sim.run(until=8.0)
    assert sender.spurious_marks > 0, (
        "jitter schedule produced no spurious marks; the CANCELLED "
        "path went untested"
    )
    assert mirror.ops > 100


# ----------------------------------------------------------------------
# The pending floor: schedules that leave it above, inside and below
# the next pending run
# ----------------------------------------------------------------------
def _striped_board(stripes, width=3):
    """``stripes`` loss runs: per stripe one LOST, one SACKED and
    ``width - 2`` in-flight segments, so a claim has a SACKed run to
    step over between any two pending ones."""
    board = MirrorBoard()
    for i in range(stripes):
        base = i * width
        assert board.mark_lost(base, base + 1)[0] == 1
        assert board.sack_range(base + 1, base + 2) == (1, 1, 0)
    return board


def test_floor_one_segment_per_claim_over_many_loss_runs():
    """A paced sender's pattern: >= 300 loss runs, one segment claimed
    per call, every call starting from the same ``una``."""
    board = _striped_board(350)
    while board.take_pending(0, 1) is not None:
        pass
    assert board.claims == [(3 * i, 3 * i + 1) for i in range(350)]
    assert not board.has_pending


def test_floor_lowered_by_mark_and_requeue_below_it():
    board = _striped_board(40)
    for _ in range(30):
        board.take_pending(0, 1)
    assert board.claims[-1] == (87, 88)
    # A loss mark on in-flight data far below the last claim...
    assert board.mark_lost(5, 6)[0] == 1
    assert board.take_pending(0, 4) == (5, 6)
    # ...and then the search carries on where the older claims ended.
    assert board.take_pending(0, 4) == (90, 91)
    # An RTO requeues every retransmission below the floor (and the
    # in-flight third of each stripe).
    assert board.rto_requeue(0, 120) > 0
    assert board.take_pending(0, 1) == (0, 1)
    assert board.take_pending(0, 500) == (2, 4)  # 1 is SACKed
    # una moves past everything claimed so far.
    board.ack_to(0, 4)
    assert board.take_pending(4, 2) == (5, 7)


def test_floor_inside_a_run_that_a_sack_cancels():
    board = MirrorBoard()
    assert board.mark_lost(10, 20)[0] == 10
    assert board.mark_lost(30, 32)[0] == 2
    assert board.take_pending(0, 3) == (10, 13)  # floor now inside [10, 20)
    assert board.sack_range(13, 20) == (7, 0, 7)
    assert board.take_pending(0, 5) == (30, 32)
    assert board.take_pending(0, 5) is None
    # The same with the SACK covering only the segment at the floor.
    assert board.mark_lost(40, 50)[0] == 10
    assert board.take_pending(0, 2) == (40, 42)
    assert board.sack_range(42, 43) == (1, 0, 1)
    assert board.take_pending(0, 2) == (43, 45)


def test_floor_jumped_by_a_cumulative_ack():
    board = _striped_board(20)
    for _ in range(5):
        board.take_pending(0, 1)
    # The ACK lands beyond the floor, inside a stripe and on a LOST run
    # boundary in turn.
    board.ack_to(0, 31)
    assert board.take_pending(31, 1) == (33, 34)
    board.ack_to(31, 36)
    assert board.take_pending(36, 1) == (36, 37)
    # A floor left above an ACK edge that then catches up with it.
    assert board.mark_lost(38, 39)[0] == 1
    board.ack_to(36, 38)
    assert board.take_pending(38, 8) == (38, 40)


@pytest.mark.parametrize("seed", range(12))
def test_floor_randomized_board_schedule(seed):
    """Random transitions with a monotone ``una`` — the sender's
    contract — and mostly one- or two-segment claims."""
    rng = random.Random(seed)
    board = MirrorBoard()
    una, next_seq = 0, 60
    for _ in range(500):
        op = rng.random()
        lo = rng.randrange(una, next_seq)
        hi = min(next_seq, lo + rng.randrange(1, 12))
        if op < 0.45:
            board.take_pending(una, rng.choice((1, 1, 1, 2, 5)))
        elif op < 0.65:
            board.mark_lost(lo, hi)
        elif op < 0.80:
            board.sack_range(lo, hi)
        elif op < 0.92:
            ack = rng.randrange(una, min(next_seq, una + 25) + 1)
            if ack > una:
                board.ack_to(una, ack)
                una = ack
            next_seq = max(next_seq, una + 1) + rng.randrange(0, 30)
        else:
            board.rto_requeue(una, next_seq)
        assert board.next_pending(una) == board.ref.next_pending(una)
    assert len(board.claims) > 40, "schedule claimed too little to matter"


def test_paced_recovery_claims_one_segment_at_a_time():
    """End to end: a paced sender under heavy loss and blackouts claims
    hundreds of single segments, in lockstep with the reference."""
    sim = Simulator()
    wire = _ChaosWire(sim, 9, 0.3, 0.0, 2.0, 0.3)
    wire.receiver = TcpReceiver(
        sim, 0, send_ack=wire.send_ack, ts_granularity=0.0
    )
    sender = TcpSender(sim, 0, _Rate(1_500_000.0), send_packet=wire.send_data)
    wire.sender = sender
    mirror = MirrorBoard()
    sender.scoreboard = mirror
    sender.start()
    sim.run(until=5.0)
    singles = sum(1 for s, e in mirror.claims if e - s == 1)
    assert singles >= 300, f"only {singles} one-segment claims"
    assert sender.rto_count >= 1, "blackout produced no RTO"
