"""The C packet core against the pure-Python one it replaced.

``repro.sim.engine.Simulator``, ``repro.sim.link.CellularLink``,
``repro.sim.queues.DropTailQueue``, ``repro.tcp.receiver.TcpReceiver``,
``repro.sim.packet.Packet`` and ``DuplexPath``'s demux run their
per-packet work in C (``repro/sim/_core.c``).  That must be
bit-identical to the frozen Python in :mod:`tests.reference` (DESIGN.md,
"The packet core in C").  Each run shape below runs once on each core and
must give the same event sequence — every callback the loop ran, as
``(time, seq, callback)`` — the same ``events_processed``, the same link
and queue counters, the same per-flow drops and the same ``FlowResult``
summaries, and under telemetry the same trace records.  The packet and
the queue are also held to their references call by call.
"""

from __future__ import annotations

import functools
import json
import random
from unittest import mock

import pytest

import repro.experiments.runner

from repro import obs
from repro.experiments.algorithms import paper_algorithms
from repro.experiments.contention_grid import MIXES, build_contention_flows
from repro.experiments.runner import (
    ExperimentHarness,
    FlowSpec,
    canonical_summary,
    cellular_path_config,
    wired_path_config,
)
from repro.sim._core import Demux
from repro.sim.engine import Simulator
from repro.sim.link import CellularLink
from repro.sim.packet import Packet, SackBlock, make_data_packet
from repro.sim.queues import DropTailQueue
from repro.tcp.application import OnOffApplication
from repro.traces.presets import isp_trace
from tests.helpers import quantized_outage_trace
from tests.reference.engine import Simulator as ReferenceSimulator
from tests.reference.link import ReferenceCellularLink, python_core
from tests.reference.packet import Packet as ReferencePacket
from tests.reference.queues import DropTailQueue as ReferenceDropTailQueue

RUN = 2.0

#: The reference path's demux methods and the sinks each one reads.
REFERENCE_DEMUX = {"_deliver_forward": "_forward_sinks",
                   "_deliver_reverse": "_reverse_sinks"}


@pytest.fixture(scope="module")
def traces():
    return (isp_trace("A", "stationary", duration=4.0),
            isp_trace("A", "stationary", duration=4.0, direction="uplink"))


class EventTap:
    """Logs ``(time, seq, callback)`` of every event a loop runs.

    It is an audit ring of stride 1: after each event it reads the time
    and callback the loop stored, takes the seq from the heap head it
    saw after the previous event (the next live entry is the one that
    runs), and forwards the store to the ring already attached (the
    auditor's), exactly as the loop would have.  Callbacks are named by
    method and by the first-seen order of the object they are bound to,
    so the two cores' runs compare.  A path's demux (a wired link
    schedules each delivery to it) is named by its sinks: the C
    ``Demux`` holds them, the reference path's ``_deliver_forward`` and
    ``_deliver_reverse`` read them.
    """

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self._ids = {}
        self._keep = []
        self._inner = sim.audit_ring
        self._t, self._cb, self._n = [None], [None], [0]
        sim.audit_ring = (self._t, self._cb, self._n, 0, [1], 1, self._sweep)
        self._next = self._head()

    def _head(self):
        heap = self.sim._heap
        live = heap[:1] if heap and heap[0][2] is not None else [
            e for e in heap if e[2] is not None]
        return (min(live)[0], min(live)[1]) if live else None

    def _ident(self, obj):
        if obj is None:
            return None
        found = self._ids.get(id(obj))
        if found is None:
            found = self._ids[id(obj)] = len(self._keep)
            self._keep.append(obj)
        return found

    def _key(self, cb):
        bound = ()
        while True:
            if isinstance(cb, functools.partial):
                bound += tuple(self._ident(a) for a in cb.args)
                cb = cb.func
            elif hasattr(cb, "__wrapped__"):  # a profiler's timing wrapper
                cb = cb.__wrapped__
            else:
                break
        if isinstance(cb, Demux):
            return ("demux", self._ident(cb.sinks), bound)
        name = getattr(cb, "__name__", "?")
        if name in REFERENCE_DEMUX:
            sinks = getattr(cb.__self__, REFERENCE_DEMUX[name])
            return ("demux", self._ident(sinks), bound)
        return name, self._ident(getattr(cb, "__self__", None)), bound

    def _sweep(self):
        now, cb = self._t[0], self._cb[0]
        assert self._next is not None and self._next[0] == now
        self.log.append((now, self._next[1], self._key(cb)))
        self._next = self._head()
        if self._inner is not None:
            ring_t, ring_cb, ring_n, mask, countdown, stride, sweep = \
                self._inner
            n = ring_n[0]
            ring_t[n & mask] = now
            ring_cb[n & mask] = cb
            ring_n[0] = n + 1
            c = countdown[0] - 1
            if c:
                countdown[0] = c
            else:
                countdown[0] = stride
                sweep()


def _link_counters(link):
    names = ("delivered_packets", "delivered_bytes", "wasted_opportunities",
             "batches_drained", "batched_packets", "_cycle", "_index")
    return {name: getattr(link, name) for name in names if hasattr(link, name)}


def _queue_counters(queue):
    names = ("drops", "enqueued", "bytes", "enqueued_bytes", "sojourn_max",
             "codel_drops", "codel_dropped_bytes")
    counters = {name: getattr(queue, name) for name in names
                if hasattr(queue, name)}
    counters["len"] = len(queue)
    return counters


def _run(path_config, flows, *, slices=(), shifts=(), telemetry=None,
         sampling=None, profile=None, audit=None, watch=None):
    with obs.observing(telemetry, sampling, profile) as (tracer, profiler):
        harness = ExperimentHarness(
            path_config, flows, RUN, measure_start=0.5, audit=audit,
            tracer=tracer, profiler=profiler)
        link = harness.path.forward_link
        for at, delta in shifts:
            def shift(delta=delta):
                link.prop_delay += delta
            harness.sim.schedule_at(at, shift)
        tap = EventTap(harness.sim)
        watched = watch(harness) if watch is not None else dict
        for until in slices:
            harness.advance(until)
        results = harness.finalize()
    sim = harness.sim
    path = harness.path
    return {
        "core": (type(sim).__module__, type(link).__name__),
        "events": tap.log,
        "events_processed": sim.events_processed,
        "compactions": sim.compactions,
        "links": [_link_counters(path.forward_link),
                  _link_counters(path.reverse_link)],
        "queues": [_queue_counters(path.forward_link.queue),
                   _queue_counters(path.reverse_link.queue)],
        "drops": [dict(path.forward_drops), dict(path.reverse_drops)],
        "watched": watched(),
        "summaries": [canonical_summary(r.summary()) for r in results],
    }


def _both(leg):
    """``leg()`` on the C core, then on the reference; equal results."""
    fast = leg()
    with python_core():
        ref = leg()
    assert fast.pop("core") == ("repro.sim.engine", "CellularLink") \
        or fast["links"][0].keys() == {"delivered_packets", "delivered_bytes"}
    assert ref.pop("core")[0] == "tests.reference.engine"
    assert len(fast["events"]) == fast["events_processed"] > 1000
    for key in fast:
        assert fast[key] == ref[key], key
    return fast


def _single(traces, name, **kwargs):
    return lambda: _run(cellular_path_config(*traces),
                        [FlowSpec(cc_factory=paper_algorithms()[name])],
                        **kwargs)


@pytest.mark.parametrize("name", ["PR(M)", "CUBIC", "BBR", "PR(A)"])
def test_algorithms(traces, name):
    _both(_single(traces, name))


def test_contention_16(traces):
    flows, _ = build_contention_flows(
        MIXES["pr-vs-cubic"], 16, "staggered", 0.05, 0.2, overlap=1.0)
    result = _both(lambda: _run(cellular_path_config(*traces), flows))
    assert len(result["summaries"]) == 16


def _onoff_flows():
    return [FlowSpec(cc_factory=paper_algorithms()["CUBIC"],
                     name=f"onoff-{i}",
                     application=OnOffApplication(
                         rate=2e6, on_seconds=0.05, off_seconds=0.15,
                         start=0.01 * i))
            for i in range(4)]


def test_onoff_sources(traces):
    result = _both(lambda: _run(cellular_path_config(*traces),
                                _onoff_flows()))
    assert result["links"][0]["batched_packets"] > 0


#: Link telemetry each mobile trace provokes from on/off sources.
LINK_RECORDS = {"A": {"link.batch"}, "B": {"link.outage", "link.recover"}}


@pytest.mark.parametrize("sampling", [None, "queue.sample:every=64;*:max=1000"],
                         ids=["full", "sampled"])
@pytest.mark.parametrize("isp", sorted(LINK_RECORDS))
def test_telemetry(tmp_path, isp, sampling):
    mobile = (isp_trace(isp, "mobile", duration=4.0),
              isp_trace(isp, "mobile", duration=4.0, direction="uplink"))
    paths = iter([tmp_path / "c.jsonl", tmp_path / "ref.jsonl"])

    def leg():
        path = next(paths)
        out = _run(cellular_path_config(*mobile), _onoff_flows(),
                   telemetry=str(path), sampling=sampling)
        out["records"] = [
            {k: v for k, v in record.items() if "wall" not in k}
            for record in map(json.loads, path.read_text().splitlines())
            if record["kind"] not in ("meta", "metrics", "run.end")]
        return out

    kinds = {record["kind"] for record in _both(leg)["records"]}
    assert LINK_RECORDS[isp] <= kinds


def test_audit(traces):
    _both(_single(traces, "PR(M)", audit=True))


def test_profile(traces, tmp_path):
    paths = iter([tmp_path / "c.jsonl", tmp_path / "ref.jsonl"])
    _both(lambda: _single(traces, "PR(M)", telemetry=str(next(paths)),
                          profile=True)())


def test_codel(traces):
    result = _both(lambda: _run(
        cellular_path_config(*traces, aqm="codel", buffer_packets=40),
        [FlowSpec(cc_factory=paper_algorithms()["CUBIC"])]))
    assert result["queues"][0]["codel_drops"] > 0


def _watch_receivers(harness):
    """Count, per run, what each receiver met: its data arrivals, the
    ones below ``rcv_nxt``, the in-order arrivals that filled a hole, the
    most runs its reorder store held at an ACK, and the ACKs it sent and
    the most SACK blocks one carried."""
    stats = dict.fromkeys(("data", "below", "hole_fills", "max_runs",
                           "acks", "sacked_acks", "max_sacks"), 0)
    sinks = harness.path._forward_sinks
    for flow_id, sink in list(sinks.items()):
        receiver = sink.__self__

        def receive(packet, sink=sink, receiver=receiver):
            before = receiver.rcv_nxt
            stats["data"] += 1
            stats["below"] += packet.seq < before
            sink(packet)
            stats["hole_fills"] += (packet.seq == before
                                    and receiver.rcv_nxt > before + 1)

        def send_ack(ack, send=receiver.send_ack, receiver=receiver):
            stats["acks"] += 1
            stats["sacked_acks"] += bool(ack.sacks)
            stats["max_sacks"] = max(stats["max_sacks"], len(ack.sacks))
            stats["max_runs"] = max(stats["max_runs"], len(receiver._ooo))
            return send(ack)

        sinks[flow_id] = receive
        receiver.send_ack = send_ack
    return lambda: dict(stats)


def test_shallow_buffer_drops(traces):
    # Two flows over a 40-packet buffer: the C queue's drops reach each
    # flow's on_drop count as the reference queue's do.
    flows = [FlowSpec(cc_factory=paper_algorithms()["CUBIC"]),
             FlowSpec(cc_factory=paper_algorithms()["PR(M)"], start=0.2)]
    result = _both(lambda: _run(
        cellular_path_config(*traces, buffer_packets=40), flows,
        watch=_watch_receivers))
    drops = result["drops"][0]
    assert sorted(drops) == [0, 1] and min(drops.values()) > 0
    assert sum(drops.values()) == result["queues"][0]["drops"]
    assert result["watched"]["hole_fills"] > 0


def _without_sack(leg):
    """``leg`` with every receiver built with SACK off, on either core."""
    def run():
        receiver = repro.experiments.runner.TcpReceiver
        with mock.patch.object(repro.experiments.runner, "TcpReceiver",
                               functools.partial(receiver,
                                                 sack_enabled=False)):
            return leg()
    return run


@pytest.mark.parametrize("variant", ["delayed_ack", "no_sack"])
def test_receiver_variants(traces, variant):
    spec = FlowSpec(cc_factory=paper_algorithms()["CUBIC"],
                    delayed_ack=variant == "delayed_ack")
    leg = functools.partial(_run, cellular_path_config(*traces,
                                                       buffer_packets=40),
                            [spec], watch=_watch_receivers)
    watched = _both(_without_sack(leg) if variant == "no_sack"
                    else leg)["watched"]
    assert watched["max_runs"] > 0  # out-of-order data was held
    if variant == "delayed_ack":
        assert watched["acks"] < 0.75 * watched["data"]
    else:
        assert watched["sacked_acks"] == 0


def test_handover_reordering(traces):
    # A handover that shrinks the delay while a 40-packet buffer drops:
    # later segments overtake earlier ones, holes are filled, the store
    # holds more runs than an ACK has SACK blocks for, and segments below
    # rcv_nxt arrive again.
    watched = _both(lambda: _run(
        cellular_path_config(*traces, buffer_packets=40),
        [FlowSpec(cc_factory=paper_algorithms()["CUBIC"])],
        shifts=((0.8, 0.03), (1.3, -0.045)),
        watch=_watch_receivers))["watched"]
    assert watched["hole_fills"] > 0
    assert watched["max_runs"] > 3 and watched["max_sacks"] == 3
    assert watched["below"] > 0


def test_wired():
    _both(lambda: _run(wired_path_config(2e6, 0.08, 100),
                       [FlowSpec(cc_factory=paper_algorithms()["PR(M)"])]))


def test_handover(traces):
    # The shorter delay lands while deliveries are in flight, so groups
    # are inserted ahead of the pump's head.
    _both(_single(traces, "PR(M)", shifts=((0.8, 0.03), (1.3, -0.045))))


def test_trace_rollover():
    # Millisecond-quantised with a 200 ms outage: same-instant
    # opportunities, re-armed across cycle boundaries (the float
    # round-trip of DESIGN.md §9), and an idle fast-forward.
    trace = quantized_outage_trace()
    result = _both(_single((trace, trace), "CUBIC"))
    assert result["links"][0]["_cycle"] >= 1


def test_run_until_in_slices(traces):
    slices = [0.013 * k for k in range(1, 40)] + [0.9, 1.37, 1.5]
    sliced = _both(_single(traces, "PR(M)", slices=slices))
    # Batches stop at each slice's bound, so the events differ from an
    # unsliced run's; the results may not.
    assert sliced["summaries"] == _single(traces, "PR(M)")()["summaries"]


def _non_looping(sim_cls, link_cls, queue_cls, deliver):
    """Bursts into a link whose trace ends mid-run and does not loop;
    without a receiver, only the first_t + prop cap bounds a batch."""
    sim = sim_cls()
    arrivals = []
    link = link_cls(sim, quantized_outage_trace(), queue_cls(400),
                    loop=False,
                    on_deliver=(lambda p: arrivals.append((sim.now, p.seq)))
                    if deliver else None)
    seqs = iter(range(10 ** 6))

    def burst():
        for _ in range(60):
            link.enqueue(make_data_packet(0, next(seqs), sim.now))

    for at in (0.0, 0.05, 0.35, 0.5, 0.8, 0.97, 1.2):
        sim.schedule_at(at, burst)
    tap = EventTap(sim)
    sim.run(until=0.45)
    sim.run()
    return (arrivals, tap.log, sim.events_processed, sim.now,
            _link_counters(link), len(link.queue))


@pytest.mark.parametrize("deliver", [True, False],
                         ids=["receiver", "no-receiver"])
def test_non_looping_trace(deliver):
    fast = _non_looping(Simulator, CellularLink, DropTailQueue, deliver)
    assert fast == _non_looping(ReferenceSimulator, ReferenceCellularLink,
                                ReferenceDropTailQueue, deliver)
    assert fast[-1] > 0  # packets left queued once the trace ran out


PACKET_FIELDS = ("flow_id", "seq", "ack", "is_ack", "tsval", "tsecr",
                 "sacks", "size", "sent_time", "retransmit", "uid",
                 "enqueue_time")


@pytest.mark.parametrize("args, kwargs", [
    ((3,), {}),
    ((1, 2, 3, True, 0.5, 0.25, [SackBlock(4, 6)], 60, 0.5, True), {}),
    ((7,), {"seq": 9, "retransmit": True, "size": 100}),
    ((), {"flow_id": 2, "is_ack": True, "ack": 11, "tsval": 1.23456}),
    ((4, 5), {"uid": 99, "enqueue_time": 2.0}),
], ids=["defaults", "positional", "keywords", "ack", "uid"])
def test_packet_matches_reference(args, kwargs):
    fast, ref = Packet(*args, **kwargs), ReferencePacket(*args, **kwargs)
    for name in PACKET_FIELDS:
        if name == "uid" and "uid" not in kwargs:
            continue
        assert getattr(fast, name) == getattr(ref, name), name
        assert type(getattr(fast, name)) is type(getattr(ref, name)), name
    assert repr(fast) == repr(ref)
    fast.enqueue_time = ref.enqueue_time = 1.5
    assert fast.enqueue_time == 1.5


def test_packet_identity_matches_reference():
    for cls in (Packet, ReferencePacket):
        a, b = cls(0), cls(0)
        assert b.uid == a.uid + 1
        assert a.sacks == [] and a.sacks is not b.sacks
        assert a != b and cls(1, uid=5) == cls(1, uid=5)
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(TypeError):
            cls()
    assert repr(Packet(1, 7, retransmit=True)) == "<RTX flow=1 seq=7>"


def _queue_script(queue_cls, packet_cls, seed):
    """A seeded mix of every queue operation on a 6-packet queue; the
    record of everything each call returned and every counter after."""
    rng = random.Random(seed)
    dropped = []
    queue = queue_cls(capacity=6, on_drop=lambda p: dropped.append(p.seq))
    log, now = [], 0.0
    for seq in range(400):
        now += rng.choice((0.0, 0.001, 0.0125))
        op = rng.random()
        if op < 0.5:
            size = rng.choice((60, 1500, 1500, 700))
            got = queue.push(packet_cls(0, seq, size=size), now)
        elif op < 0.7:
            got = queue.pop(now)
            got = None if got is None else got.seq
        elif op < 0.9:
            got = [p.seq for p in queue.drain_opportunity(
                now, rng.choice((60, 1500, 3000)))]
        else:
            head = queue.peek()
            got = None if head is None else head.seq
        log.append((got, len(queue), queue.drops, queue.enqueued,
                    queue.bytes, queue.enqueued_bytes, queue.sojourn_max))
    return log, dropped


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_queue_matches_reference(seed):
    fast = _queue_script(DropTailQueue, Packet, seed)
    assert fast == _queue_script(ReferenceDropTailQueue, ReferencePacket,
                                 seed)
    assert fast[1] and fast[0][-1][-1] > 0  # drops and a sojourn were seen
