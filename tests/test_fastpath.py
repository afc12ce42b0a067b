"""The batched delivery engine: unit tests plus differentials against
the reference link.

:class:`~repro.sim.link.CellularLink` serves runs of opportunities in
one event and delivers groups through one pump; that must be
*bit-identical* to :class:`tests.reference.link.ScalarCellularLink` (one
opportunity per event, one event per delivered packet) — same
``FlowResult`` summaries, same delivery instants, same arrival order —
because batching only reorders bookkeeping, never observable events
(DESIGN.md §9).  The differential tests here run both links over
randomized seeded traces (millisecond-quantised like real Saturator
captures, with outage gaps carved out) across drop-tail and CoDel
queues, delayed-ACK on and off, and both flow directions, over the
scenario × algorithm grid, and over the inputs on which the engine once
broke exact-time ties differently from the reference.
"""

import dataclasses
import math
import random

import pytest

from repro.experiments.algorithms import paper_algorithms
from repro.experiments.contention_grid import MIXES, build_contention_flows
from repro.experiments.runner import (
    ExperimentHarness,
    FlowSpec,
    canonical_summary,
    cellular_path_config,
    run_experiment,
    run_single_flow,
)
from repro.sim.engine import Simulator
from repro.sim.packet import make_data_packet
from repro.sim.queues import CoDelQueue, DropTailQueue
from repro.tcp.application import (
    ConstantBitrateApplication,
    OnOffApplication,
)
from repro.traces.generator import constant_rate_trace, generate_cellular_trace
from repro.traces.presets import PRESET_SPECS, UPLINK_RATIO, isp_trace
from repro.traces.trace import OPPORTUNITY_BYTES, Trace
from tests.helpers import drive_bursts, isp_traces
from tests.reference.link import scalar_links

DATA = 0  # flow id used throughout


# ----------------------------------------------------------------------
# Engine: claimed sequence numbers and the quiescence horizon
# ----------------------------------------------------------------------
class TestEngineHelpers:
    def test_claimed_seq_breaks_ties_at_claim_point(self):
        """Two events at the same time fire in seq-claim order, even when
        pushed in the opposite order (the pump's tie-break contract)."""
        sim = Simulator()
        order = []
        early = sim.claim_seq()
        sim.schedule_at(1.0, lambda: order.append("late"))  # claims after
        sim.schedule_claimed(1.0, early, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_requeue_claimed_reuses_entry_with_given_seq(self):
        sim = Simulator()
        order = []
        seq_a = sim.claim_seq()
        event = sim.schedule_claimed(1.0, seq_a, lambda: order.append("a"))
        sim.run(until=1.5)
        seq_b = sim.claim_seq()
        sim.schedule_at(2.0, lambda: order.append("plain"))
        sim.requeue_claimed(event, 2.0, seq_b)
        event[2] = lambda: order.append("b")
        sim.run()
        assert order == ["a", "b", "plain"]

    def test_schedule_claimed_rejects_past(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_claimed(0.5, sim.claim_seq(), lambda: None)

    def test_horizon_excluding_skips_only_the_excluded_head(self):
        sim = Simulator()
        pump = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.schedule_at(3.0, lambda: None)
        assert sim.horizon_excluding(pump) == 2.0
        assert sim.horizon_excluding(None) == 1.0

    def test_horizon_excluding_empty_heap_is_infinite(self):
        sim = Simulator()
        assert sim.horizon_excluding(None) == math.inf
        lone = sim.schedule_at(1.0, lambda: None)
        assert sim.horizon_excluding(lone) == math.inf

    def test_run_until_visible_during_run(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(sim.run_until))
        sim.run(until=5.0)
        assert seen == [5.0]
        assert sim.run_until is None


# ----------------------------------------------------------------------
# Queues: drain_opportunity vs the scalar pop loop
# ----------------------------------------------------------------------
def _scalar_drain(queue, now, budget):
    out = []
    while True:
        head = queue.peek()
        if head is None or head.size > budget:
            break
        packet = queue.pop(now)
        if packet is None:
            break
        budget -= packet.size
        out.append(packet)
    return out


def _filled(queue_cls, n=10, **kwargs):
    queue = queue_cls(capacity=64, **kwargs)
    for seq in range(n):
        queue.push(make_data_packet(DATA, seq, 0.0), now=0.0)
    return queue


class TestDrainOpportunity:
    @pytest.mark.parametrize("queue_cls", [DropTailQueue, CoDelQueue])
    def test_matches_scalar_pop_loop(self, queue_cls):
        a = _filled(queue_cls)
        b = _filled(queue_cls)
        budget = OPPORTUNITY_BYTES
        drained = a.drain_opportunity(1.0, budget)
        reference = _scalar_drain(b, 1.0, budget)
        assert [p.seq for p in drained] == [p.seq for p in reference]
        assert a.bytes == b.bytes
        assert len(a) == len(b)

    def test_budget_smaller_than_head_drains_nothing(self):
        queue = _filled(DropTailQueue)
        assert queue.drain_opportunity(1.0, 10) == []
        assert len(queue) == 10

    def test_codel_sojourn_state_advances_identically(self):
        """CoDel's control law must see the same pop sequence: drain a
        long-sojourn backlog and compare drop behaviour to the scalar
        loop over several opportunities."""
        a = _filled(CoDelQueue, n=40, target=0.001, interval=0.01)
        b = _filled(CoDelQueue, n=40, target=0.001, interval=0.01)
        now = 1.0
        for _ in range(30):
            drained = a.drain_opportunity(now, OPPORTUNITY_BYTES)
            reference = _scalar_drain(b, now, OPPORTUNITY_BYTES)
            assert [p.seq for p in drained] == [p.seq for p in reference]
            now += 0.005
        assert a.drops == b.drops


# ----------------------------------------------------------------------
# Compiled schedule
# ----------------------------------------------------------------------
class TestCompiledSchedule:
    def test_first_at_or_after_matches_linear_scan(self):
        rng = random.Random(7)
        times = sorted(round(rng.uniform(0, 9.9), 3) for _ in range(500))
        trace = Trace(times, duration=10.0)
        compiled = trace.compiled()
        arr = list(compiled.times)
        for probe in [0.0, 0.0005, 5.0, 9.95, times[0], times[-1]]:
            want = next(
                (i for i, t in enumerate(arr) if t >= probe), len(arr)
            )
            assert compiled.first_at_or_after(probe) == want
        lo = 100
        for probe in [arr[lo], arr[lo] + 1e-9, 9.99]:
            want = next(
                (i for i in range(lo, len(arr)) if arr[i] >= probe), len(arr)
            )
            assert compiled.first_at_or_after(probe, lo) == want

    def test_compiled_is_cached(self):
        trace = Trace([0.1, 0.2], duration=1.0)
        assert trace.compiled() is trace.compiled()


# ----------------------------------------------------------------------
# Link pump: batched delivery instants identical to the reference, fewer
# events
# ----------------------------------------------------------------------
class TestLinkPump:
    def test_delivery_instants_bit_identical(self):
        with scalar_links():
            scalar_sim, _, scalar = drive_bursts()
        fast_sim, path, fast = drive_bursts()
        assert fast == scalar
        assert len(fast) == 2 * 7 * 40  # every data packet and its ACK
        assert path.forward_link.batches_drained > 0
        # The whole point: batching collapsed serve + delivery events.
        assert fast_sim.events_processed < scalar_sim.events_processed


# ----------------------------------------------------------------------
# Randomized end-to-end differential: full sender/receiver stacks
# ----------------------------------------------------------------------
def _random_trace(rng, duration=6.0):
    n = rng.randrange(1500, 3500)
    times = sorted(rng.uniform(0.0, duration * 0.999) for _ in range(n))
    times = [math.floor(t * 1000.0) / 1000.0 for t in times]
    for _ in range(rng.randrange(1, 4)):  # carve outage gaps
        start = rng.uniform(0.0, duration * 0.7)
        span = rng.uniform(0.05, 0.4)
        times = [t for t in times if not (start <= t < start + span)]
    return Trace(times, duration=duration, name=f"rand{n}")


def _run_leg(seed, algo, aqm, direction, delack):
    rng = random.Random(seed)
    down = _random_trace(rng)
    up = _random_trace(rng)
    config = cellular_path_config(down, up, aqm=aqm)
    results = run_experiment(
        config,
        [FlowSpec(cc_factory=paper_algorithms()[algo], direction=direction,
                  delayed_ack=delack)],
        duration=4.0, measure_start=0.5,
    )
    return results[0].summary()


@pytest.mark.parametrize(
    "seed,algo,aqm,direction,delack",
    [
        (1, "PR(M)", "droptail", "down", False),
        (2, "CUBIC", "codel", "down", False),
        (3, "BBR", "droptail", "down", True),
        (4, "PR(M)", "codel", "up", False),
        (5, "CUBIC", "droptail", "up", True),
        (6, "Sprout", "codel", "down", True),
    ],
)
def test_random_trace_differential(seed, algo, aqm, direction, delack):
    with scalar_links():
        scalar = _run_leg(seed, algo, aqm, direction, delack)
    assert _run_leg(seed, algo, aqm, direction, delack) == scalar


# ----------------------------------------------------------------------
# Scenario x algorithm grid: AQMs, delayed ACKs, both flow directions,
# outage-heavy mobile traces
# ----------------------------------------------------------------------
#: (label, isp, mode, aqm, direction, delayed_ack)
GRID = [
    ("A-mobile-droptail-down", "A", "mobile", "droptail", "down", False),
    ("A-mobile-codel-down", "A", "mobile", "codel", "down", False),
    ("B-stationary-droptail-down-delack", "B", "stationary", "droptail",
     "down", True),
    ("C-mobile-droptail-up", "C", "mobile", "droptail", "up", False),
    ("B-mobile-codel-up-delack", "B", "mobile", "codel", "up", True),
]

GRID_ALGOS = ["PR(M)", "CUBIC", "BBR", "Sprout", "Verus"]


def _grid_leg(isp, mode, aqm, direction, delack, algo):
    down = isp_trace(isp, mode, duration=20.0)
    up = isp_trace(isp, mode, duration=20.0, direction="uplink")
    results = run_experiment(
        cellular_path_config(down, up, aqm=aqm),
        [FlowSpec(cc_factory=paper_algorithms()[algo], direction=direction,
                  delayed_ack=delack)],
        duration=6.0, measure_start=1.0,
    )
    return canonical_summary(results[0].summary())


@pytest.mark.parametrize("algo", GRID_ALGOS)
@pytest.mark.parametrize(
    "isp,mode,aqm,direction,delack",
    [cell[1:] for cell in GRID], ids=[cell[0] for cell in GRID],
)
def test_grid_differential(isp, mode, aqm, direction, delack, algo):
    with scalar_links():
        scalar = _grid_leg(isp, mode, aqm, direction, delack, algo)
    assert _grid_leg(isp, mode, aqm, direction, delack, algo) == scalar


# ----------------------------------------------------------------------
# Exact-time ties: the engine must break them like the reference, and
# must not care whether an observer adds heap events
# ----------------------------------------------------------------------
def _tie_seed_traces(offset):
    """Equal 20 ms delays and coinciding opportunity instants: an ACK the
    reverse link serves inside a forward batch window can land on the
    sender at the very instant a batched data packet lands on the
    receiver (DESIGN.md §9)."""
    down = dataclasses.replace(
        PRESET_SPECS["ISPA-stationary"], seed=101 + offset, duration=5.0)
    up = dataclasses.replace(
        down,
        mean_throughput=down.mean_throughput * UPLINK_RATIO,
        std_throughput=down.std_throughput * UPLINK_RATIO,
        seed=down.seed + 5000,
    )
    return generate_cellular_trace(down), generate_cellular_trace(up)


def _tie_seed_leg(down, up, **observers):
    result = run_single_flow(
        paper_algorithms()["CUBIC"], down, up,
        duration=5.0, measure_start=1.25, buffer_packets=2000, **observers,
    )
    # Element 11, present only on traced runs, is the metrics snapshot.
    return canonical_summary(result.summary()[:11])


@pytest.mark.parametrize("offset", [1633, 6466])
class TestTieOrder:
    def test_engine_matches_reference(self, offset):
        down, up = _tie_seed_traces(offset)
        with scalar_links():
            scalar = _tie_seed_leg(down, up)
        assert _tie_seed_leg(down, up) == scalar

    def test_observers_do_not_change_the_result(self, offset, tmp_path):
        down, up = _tie_seed_traces(offset)
        plain = _tie_seed_leg(down, up)
        traced = _tie_seed_leg(
            down, up, telemetry=str(tmp_path / "trace.jsonl"))
        audited = _tie_seed_leg(down, up, audit=True)
        assert traced == plain
        assert audited == plain


def _arrival_order(down_times, up_times):
    """Every endpoint arrival of one CUBIC flow, in the order it ran."""
    log = []
    harness = ExperimentHarness(
        cellular_path_config(
            Trace(down_times, duration=1.0, name="grid-down"),
            Trace(up_times, duration=1.0, name="grid-up"),
        ),
        [FlowSpec(cc_factory=paper_algorithms()["CUBIC"])],
        duration=3.0, measure_start=0.5,
    )
    sim, path = harness.sim, harness.path
    for where, sinks in (("receiver", path._forward_sinks),
                         ("sender", path._reverse_sinks)):
        for flow_id, sink in list(sinks.items()):
            def tap(packet, _where=where, _sink=sink):
                log.append((sim.now, _where, packet.seq, packet.ack))
                _sink(packet)
            sinks[flow_id] = tap
    harness.finalize()
    return log


@pytest.mark.parametrize(
    "per_instant", [1, 2], ids=["distinct-instants", "duplicate-instants"])
def test_shared_grid_arrival_order(per_instant):
    """Synthetic tie case, no generator: both directions 20 ms, downlink
    opportunities on a 1 ms grid (once or twice per instant), uplink on
    every fourth instant of it — so data arrivals at the receiver and
    ACK arrivals at the sender keep falling on the same instant, and the
    order they run in is exactly what batch boundaries must not change.
    """
    grid = [k / 1000.0 for k in range(1000)]
    down = sorted(grid * per_instant)
    up = grid[::4]
    with scalar_links():
        scalar = _arrival_order(down, up)
    assert _arrival_order(down, up) == scalar
    instants = {t for t, where, _, _ in scalar if where == "receiver"}
    assert any(t in instants for t, where, _, _ in scalar
               if where == "sender")  # the tie the test is about occurred


# ----------------------------------------------------------------------
# Multi-flow contention differential: the N-flow cells of the grid
# ----------------------------------------------------------------------
def _contention_leg(mix, n_flows):
    flows, duration = build_contention_flows(
        MIXES[mix], n_flows, "staggered",
        stagger=0.1, settle=0.5, overlap=3.0,
    )
    down = constant_rate_trace(1.0e6 / 8.0, duration + 1.0, name="1mbps")
    results = run_experiment(
        cellular_path_config(down), flows, duration=duration
    )
    return [canonical_summary(r.summary()) for r in results]


class TestMultiFlowContention:
    """Engine == reference must survive contention, where flows
    interleave on one bottleneck and — at 16 flows on 1 Mbps — some
    starve outright.  Starved flows carry NaN delay stats, so the
    comparison goes through ``canonical_summary`` (plain tuple equality
    is never true for NaN)."""

    @pytest.mark.parametrize(
        "mix,n_flows",
        [("pr-vs-cubic", 4), ("cubic-self", 16), ("pr-heavy", 16)],
    )
    def test_contention_differential(self, mix, n_flows):
        with scalar_links():
            scalar = _contention_leg(mix, n_flows)
        assert _contention_leg(mix, n_flows) == scalar

    def test_canonical_summary_is_nan_blind_but_value_strict(self):
        a = ("flow", float("nan"), [float("nan"), 1.0], (2.0,))
        b = ("flow", float("nan"), [float("nan"), 1.0], (2.0,))
        assert a != b    # plain equality falsely diverges on NaN
        assert canonical_summary(a) == canonical_summary(b)
        assert canonical_summary(("flow", 1.0)) != canonical_summary(
            ("flow", 2.0)
        )


# ----------------------------------------------------------------------
# App-limited sources: the queue drains between bursts, so most packets
# ride a batch — the delivery path the backlogged cells barely touch
# ----------------------------------------------------------------------
def _applimited_leg(flows_factory):
    results = run_experiment(
        cellular_path_config(*isp_traces("C", "stationary", 6.0)),
        flows_factory(),
        duration=6.0, measure_start=1.5,
    )
    return [canonical_summary(r.summary()) for r in results]


def _onoff_cubic_flows():
    # Applications are built per leg, like the factories' algorithms.
    return [
        FlowSpec(
            cc_factory=paper_algorithms()["CUBIC"], name=f"onoff-{i}",
            application=OnOffApplication(
                rate=2e6, on_seconds=0.05, off_seconds=0.15,
                start=0.01 * i),
        )
        for i in range(4)
    ]


def _cbr_proprate_flow():
    return [FlowSpec(
        cc_factory=paper_algorithms()["PR(M)"], name="cbr",
        application=ConstantBitrateApplication(rate=250_000.0),
    )]


@pytest.mark.parametrize(
    "flows_factory", [_onoff_cubic_flows, _cbr_proprate_flow],
    ids=["onoff-cubic-4", "cbr-pr-m"])
def test_applimited_differential(flows_factory):
    with scalar_links():
        scalar = _applimited_leg(flows_factory)
    engine = _applimited_leg(flows_factory)
    assert engine == scalar
    assert all(summary[4] > 0 for summary in engine)  # delivered bytes


def test_audited_run_over_batched_link():
    """The auditor's conservation invariants hold with batched
    deliveries (it counts arrivals through the per-packet tap alone)."""
    rng = random.Random(11)
    result = run_single_flow(
        paper_algorithms()["PR(M)"],
        _random_trace(rng),
        uplink_trace=_random_trace(rng),
        duration=4.0, measure_start=0.5, audit=True,
    )
    assert result.delivered_bytes > 0
