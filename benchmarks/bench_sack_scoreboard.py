"""Heavy-loss SACK scoreboard benchmark: sender ACK-processing CPU.

ROADMAP named the sender's per-ACK SACK scoreboard walk the largest
remaining hot-path cost on mobile traces with heavy loss.  This bench
isolates exactly that cost: a large-window flow over a deterministic
loopback wire with seeded random drops, periodic burst losses, and
hard outages (RTO + slow-start collapse), measuring the CPU seconds
spent inside ``TcpSender.on_ack_packet`` — the path holding the
scoreboard walks (``_process_sacks``, ``_mark_losses``, cumulative-ACK
accounting).

The run is bit-deterministic (seeded drops, fixed delays), so the
measured flow — segments sent, losses, retransmissions, RTOs — is
identical across scoreboard implementations; only the CPU cost may
differ.  Results land in ``benchmarks/results/bench_sack_scoreboard
.json`` (machine-readable, the BENCH artifact) and ``.txt``.

The CI loss-smoke gate in ``scripts/perf_smoke.py`` runs the same flow
over a shorter horizon (``run_workload(horizon)``).
"""

import json
import random
import time
from time import perf_counter

from repro.sim.engine import Simulator
from repro.tcp.congestion.base import WindowCongestionControl
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

from _report import RESULTS_DIR, emit

#: Simulated horizon (seconds).
HORIZON = 60.0

#: Congestion window: deep-buffer cellular regime — hundreds of
#: segments outstanding when loss strikes.
CWND = 360

#: One-way wire delay (seconds).
DELAY = 0.03

#: Random per-segment drop probability outside outages.  Kept low:
#: cellular loss is dominated by clustered outage/handover bursts (the
#: paper's regime), with only background random loss between them.
DROP_P = 0.01

#: Uniform extra data-path delay (seconds): reorders deliveries enough
#: to trigger spurious loss marks that later SACKs cancel.
JITTER = 0.004

#: Outage schedule: every PERIOD seconds the wire goes dark for DARK
#: seconds (drops everything, retransmissions included) — the handover
#: /outage regime that forces RTO + full-window scoreboard requeues.
OUTAGE_PERIOD = 2.0
OUTAGE_DARK = 0.4

SEED = 20170407

#: Pre-refactor reference: the per-segment scoreboard (``_rtx_state``
#: dict + retransmission heap, commit 3009a61) measured min-of-N on
#: this exact workload at 15.2 us/ACK against 9.3 us/ACK for the
#: run-based scoreboard on the same host — a 39% reduction.  The
#: figure is host-specific; ``reduction_vs_baseline`` in the JSON is
#: only meaningful when compared on similar hardware.  CI gates use
#: the host-relative throughput baseline in ``benchmarks/baselines``
#: instead.
BASELINE_US_PER_ACK = 15.216


class _FixedWindow(WindowCongestionControl):
    """Constant window: all CPU cost lives in the sender's scoreboard."""

    name = "fixed"

    def __init__(self, cwnd: float) -> None:
        super().__init__()
        self.cwnd = cwnd
        self.ssthresh = float("inf")


class _LossyWire:
    """Deterministic loopback with seeded drops and scheduled outages."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.rng = random.Random(SEED)
        self.receiver = None
        self.sender = None

    def _dark(self) -> bool:
        return (self.sim.now % OUTAGE_PERIOD) > (OUTAGE_PERIOD - OUTAGE_DARK)

    def send_data(self, pkt) -> None:
        if self._dark():
            return
        if not pkt.retransmit and self.rng.random() < DROP_P:
            return
        delay = DELAY + self.rng.random() * JITTER
        self.sim.schedule(delay, lambda p=pkt: self.receiver.receive(p))

    def send_ack(self, pkt) -> None:
        if self._dark():
            return
        self.sim.schedule(DELAY, lambda p=pkt: self.sender.on_ack_packet(p))


def run_workload(horizon: float = HORIZON):
    """Run the heavy-loss flow; returns (stats dict, sender)."""
    sim = Simulator()
    wire = _LossyWire(sim)
    wire.receiver = TcpReceiver(sim, 0, send_ack=wire.send_ack,
                                ts_granularity=0.0)
    sender = TcpSender(sim, 0, _FixedWindow(CWND), send_packet=wire.send_data)
    wire.sender = sender

    # Time exactly the ACK-processing path (scoreboard walks included).
    inner = sender.on_ack_packet
    acc = [0.0]

    def timed_ack(pkt, _inner=inner, _acc=acc, _pc=perf_counter):
        t0 = _pc()
        _inner(pkt)
        _acc[0] += _pc() - t0

    sender.on_ack_packet = timed_ack
    wall0 = perf_counter()
    sender.start()
    sim.run(until=horizon)
    wall = perf_counter() - wall0

    acks = sender.acks_received
    stats = {
        "horizon_s": horizon,
        "cwnd": CWND,
        "acks": acks,
        "ack_cpu_s": acc[0],
        "us_per_ack": acc[0] / acks * 1e6 if acks else 0.0,
        "wall_s": wall,
        "segments_sent": sender.segments_sent,
        "retransmissions": sender.retransmissions,
        "lost_total": sender.lost_total,
        "spurious_marks": sender.spurious_marks,
        "rto_count": sender.rto_count,
        "snd_una": sender.snd_una,
        "events": sim.events_processed,
    }
    return stats, sender


def measure(horizon: float = HORIZON, rounds: int = 3):
    """Min-of-N ACK-processing cost (min absorbs co-tenant noise).

    The flow itself is bit-identical across rounds; only timing varies.
    """
    best = None
    for _ in range(rounds):
        stats, _ = run_workload(horizon)
        if best is None or stats["ack_cpu_s"] < best["ack_cpu_s"]:
            best = stats
    return best


def test_sack_scoreboard_cost():
    stats = measure()
    lines = [
        f"horizon: {stats['horizon_s']:.0f}s   cwnd: {stats['cwnd']}",
        f"acks: {stats['acks']:,}   ack cpu: {stats['ack_cpu_s']:.3f}s   "
        f"per ack: {stats['us_per_ack']:.2f}us",
        f"sent: {stats['segments_sent']:,}   rtx: "
        f"{stats['retransmissions']:,}   lost: {stats['lost_total']:,}   "
        f"spurious: {stats['spurious_marks']:,}   rto: {stats['rto_count']}",
    ]
    emit("bench_sack_scoreboard", lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    stats["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    stats["baseline_us_per_ack"] = BASELINE_US_PER_ACK
    stats["reduction_vs_baseline"] = round(
        1.0 - stats["us_per_ack"] / BASELINE_US_PER_ACK, 4
    )
    (RESULTS_DIR / "bench_sack_scoreboard.json").write_text(
        json.dumps(stats, indent=2) + "\n", encoding="utf-8"
    )
    # The loss episodes must actually exercise the scoreboard.
    assert stats["lost_total"] > 1000
    assert stats["rto_count"] >= 1
    assert stats["retransmissions"] > 500


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2))
