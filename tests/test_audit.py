"""Tests for the :mod:`repro.debug` invariant auditor and flight recorder.

The positive direction — audited runs are clean and bit-identical to
unaudited ones — and the negative direction: deliberately corrupted
simulator state must trip the matching check and dump a flight-recorder
trace that ``repro trace`` reads.
"""

import functools
import os
from unittest import mock

import pytest

import repro.debug.auditor as auditor_module
import repro.experiments.runner as runner_module
import repro.sim.network
from repro.core.proprate import PropRate
from repro.debug import (
    AUDIT_ENV,
    FlightRecorder,
    InvariantAuditor,
    InvariantViolation,
    audit_enabled,
)
from repro.debug.auditor import DEFAULT_TBUFF_TOLERANCE
from repro.debug.recorder import CAPACITY, TRACE_DIR_ENV
from repro.experiments.options import RunOptions
from repro.experiments.runner import (
    ExperimentHarness,
    FlowSpec,
    cellular_path_config,
    run_experiment,
    run_single_flow,
    wired_path_config,
)
from repro.obs.analyze import read_trace
from repro.sim.engine import Simulator
from repro.sim.network import DuplexPath
from repro.tcp.congestion.cubic import Cubic
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.traces.generator import constant_rate_trace
from tests.helpers import drive_bursts
from tests.reference.link import python_core
from tests.reference.queues import DropTailQueue as ReferenceDropTailQueue

DURATION = 6.0
WARMUP = 1.0


def _trace(rate: float = 750_000.0, duration: float = DURATION + 2.0):
    return constant_rate_trace(rate, duration)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
def _stamp(rec, t, callback):
    """One engine-event store, as the event loop writes it."""
    i = rec.ring_count[0] & (CAPACITY - 1)
    rec.ring_times[i] = t
    rec.ring_details[i] = callback
    rec.ring_count[0] += 1


def _sender(t, una):
    return {"t": t, "kind": "audit.sender", "flow": 0, "una": una}


class TestFlightRecorder:
    def test_ring_retains_last_n(self):
        rec = FlightRecorder()
        for i in range(CAPACITY + 6):
            rec.record(_sender(float(i), i))
        assert rec.ring_count[0] == CAPACITY + 6
        snap = rec.snapshot()
        assert len(snap) == CAPACITY
        assert [e["una"] for e in snap] == list(range(6, CAPACITY + 6))
        assert [e["t"] for e in snap[:2]] == [6.0, 7.0]

    def test_snapshot_renders_live_objects(self):
        rec = FlightRecorder()

        def some_callback(packet, flag=None):
            pass  # pragma: no cover - never called

        _stamp(rec, 1.0, some_callback)
        _stamp(rec, 1.5, functools.partial(some_callback, "pkt", flag=2))
        first, second = rec.snapshot()
        assert first["kind"] == "audit.event"
        assert first["callback"].endswith("some_callback")
        # A partial is named by its function and arguments; its own
        # repr would embed memory addresses.
        assert second["callback"].endswith("some_callback('pkt', flag=2)")
        assert " at 0x" not in second["callback"]

    def test_sender_records_share_the_engine_ring(self):
        rec = FlightRecorder()
        _stamp(rec, 0.0, "cb0")
        _stamp(rec, 1.0, "cb1")
        rec.record(_sender(1.0, 3))  # a sweep after the t=1.0 event
        _stamp(rec, 2.0, "cb2")
        snap = rec.snapshot()
        assert [e["kind"] for e in snap] == [
            "audit.event", "audit.event", "audit.sender", "audit.event"]
        assert [e["t"] for e in snap] == [0.0, 1.0, 1.0, 2.0]
        assert rec.ring_count[0] == 4

    def test_dump_writes_parseable_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        rec = FlightRecorder()
        rec.record(_sender(0.5, 1))
        violation = {"t": 0.5, "kind": "audit.violation", "check": "x",
                     "message": "boom"}
        path = rec.dump(0.5, violations=[violation], sweeps=3)
        assert path.startswith(str(tmp_path)) and path.endswith(".jsonl")
        meta, sender, logged, closing = read_trace(path)
        assert meta["kind"] == "meta" and meta["format"] == "repro.obs/1"
        assert sender == _sender(0.5, 1)
        assert logged == violation
        assert closing == {"t": 0.5, "kind": "audit.dump", "path": path,
                           "violations": 1, "recorded": 1, "sweeps": 3}


# ----------------------------------------------------------------------
# The REPRO_AUDIT switch
# ----------------------------------------------------------------------
class TestAuditEnabled:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "1")
        assert audit_enabled(False) is False
        monkeypatch.delenv(AUDIT_ENV)
        assert audit_enabled(True) is True

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("TRUE", True), ("yes", True),
        ("0", False), ("", False), ("false", False), ("False", False),
        ("no", False), ("off", False), (" OFF ", False),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv(AUDIT_ENV, value)
        assert audit_enabled() is expected

    def test_unset_env_is_off(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV, raising=False)
        assert audit_enabled() is False
        assert audit_enabled(None) is False


# ----------------------------------------------------------------------
# Clean audited runs
# ----------------------------------------------------------------------
class TestCleanRun:
    def test_audited_run_is_clean_and_bit_identical(self):
        kwargs = dict(duration=DURATION, measure_start=WARMUP)
        plain = run_single_flow(
            lambda: PropRate(target_buffer_delay=0.040), _trace(),
            audit=False, **kwargs,
        )
        audited = run_single_flow(
            lambda: PropRate(target_buffer_delay=0.040), _trace(),
            audit=True, **kwargs,
        )
        assert audited.throughput == plain.throughput
        assert audited.delivered_bytes == plain.delivered_bytes
        assert audited.delay.mean == plain.delay.mean
        assert audited.retransmissions == plain.retransmissions

    def test_every_batched_delivery_reaches_the_per_packet_tap(self):
        """Bursty refill over the quantized-outage trace: the data link
        moves every packet in a multi-opportunity batch and the pumps
        deliver multi-packet groups, yet the single ``on_deliver`` tap
        sees every packet the links count as delivered."""
        audits = []

        def observe(sim, path):
            audits.extend(
                InvariantAuditor(sim).attach_path(path))

        sim, path, arrivals = drive_bursts(observe)
        assert path.forward_link.batched_packets == 7 * 40
        # Fewer events than deliveries: groups held more than one packet.
        assert sim.events_processed < len(arrivals) == 2 * 7 * 40
        for audit in audits:
            assert audit.arrived == audit.link.delivered_packets == 7 * 40

    def test_env_switch_attaches_auditor(self, monkeypatch):
        attached = []
        real = InvariantAuditor

        class Spy(real):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                attached.append(self)

        monkeypatch.setattr(runner_module, "InvariantAuditor", Spy)
        monkeypatch.setenv(AUDIT_ENV, "1")
        run_single_flow(
            lambda: PropRate(target_buffer_delay=0.040), _trace(),
            duration=2.0, measure_start=0.5,
        )
        (auditor,) = attached
        assert auditor.sweeps > 0
        assert auditor.recorder.ring_count[0] > 0
        assert auditor.violations == []


# ----------------------------------------------------------------------
# The queue's sojourn counter is the auditor's ground truth
# ----------------------------------------------------------------------
class _Recomputing(ReferenceDropTailQueue):
    """The reference queue, also keeping ``now - enqueue_time`` of every
    packet it hands out, by its own arithmetic."""

    built: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.worst = None
        self.built.append(self)

    def _dequeued(self, packets, now):
        for packet in packets:
            sojourn = now - packet.enqueue_time
            if self.worst is None or sojourn > self.worst:
                self.worst = sojourn
        return packets

    def pop(self, now):
        packet = super().pop(now)
        if packet is not None:
            self._dequeued([packet], now)
        return packet

    def drain_opportunity(self, now, budget):
        return self._dequeued(super().drain_opportunity(now, budget), now)


class TestSojournCounter:
    # The cellular path's downlink drains by opportunity and its uplink,
    # a wired link, by ``pop``; the wired path pops both ways.
    @pytest.mark.parametrize("shape", ["cellular", "wired"])
    def test_auditor_maximum_is_the_true_sojourn_maximum(self, shape):
        """After a 2 s deep-buffer audited run, the windowed maximum the
        auditor folded from ``queue.sojourn_max`` is the largest
        ``dequeue time - enqueue_time`` the reference queue sees."""
        config = (cellular_path_config(_trace()) if shape == "cellular"
                  else wired_path_config(750_000.0, 0.06, 2000))
        flows = [FlowSpec(cc_factory=Cubic)]
        harness = ExperimentHarness(config, flows, 2.0, measure_start=0.5,
                                    audit=True)
        harness.finalize()
        now = harness.sim.now
        audited = [link.sojourn_max.current(now)
                   for link in harness.auditor._links]

        _Recomputing.built = []
        with python_core(), mock.patch.object(
                repro.sim.network, "DropTailQueue", _Recomputing):
            ExperimentHarness(config, flows, 2.0, measure_start=0.5).finalize()
        assert audited == [queue.worst for queue in _Recomputing.built]
        assert audited[0] > 0.1  # the deep buffer did fill


# ----------------------------------------------------------------------
# Injected corruption must trip the matching check
# ----------------------------------------------------------------------
def _wire():
    """A manually wired single-flow simulation with the auditor attached."""
    sim = Simulator()
    path = DuplexPath(sim, cellular_path_config(_trace()))
    auditor = InvariantAuditor(sim)
    forward_audit, _ = auditor.attach_path(path)
    receiver = TcpReceiver(sim, 0, send_ack=path.send_reverse)
    sender = TcpSender(
        sim, 0, PropRate(target_buffer_delay=0.040),
        send_packet=path.send_forward,
    )
    path.attach_flow(0, receiver.receive, sender.on_ack_packet)
    auditor.attach_flow(sender, receiver, data_link=forward_audit)
    sender.start()
    return sim, path, sender, auditor


class TestInjectedViolations:
    def test_conservation_leak_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        sim, path, sender, auditor = _wire()

        def leak():
            path.forward_link.queue.enqueued += 1

        sim.schedule_at(2.0, leak)
        with pytest.raises(InvariantViolation) as exc_info:
            sim.run(until=4.0)
        assert exc_info.value.check == "conservation"
        # The dumped trace reads back: the ring, then the violation
        # record the auditor keeps, then the closing audit.dump.
        trace_path = exc_info.value.trace_path
        assert trace_path is not None and os.path.exists(trace_path)
        records = read_trace(trace_path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta" and "audit.event" in kinds
        assert records[-2] == auditor.violations[0]
        assert records[-2]["check"] == "conservation"
        assert records[-1]["kind"] == "audit.dump"
        assert records[-1]["t"] == records[-2]["t"] == sim.now
        assert records[-1]["recorded"] > 0

    def test_stalled_rto_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        sim, path, sender, auditor = _wire()

        def stall():
            assert sender.snd_una < sender.next_seq  # data genuinely unACKed
            sender._rto_event.cancel()
            auditor.sweep(full=True)

        sim.schedule_at(2.0, stall)
        with pytest.raises(InvariantViolation) as exc_info:
            sim.run(until=4.0)
        assert exc_info.value.check == "timer-liveness"

    def test_parked_pacing_tick_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        sim, path, sender, auditor = _wire()

        def park():
            assert sender.cc.pacing_rate > 0.0
            sender._tick_event.cancel()
            auditor.sweep(full=True)

        sim.schedule_at(2.0, park)
        with pytest.raises(InvariantViolation) as exc_info:
            sim.run(until=4.0)
        assert exc_info.value.check == "timer-liveness"
        assert "tick" in exc_info.value.detail

    def test_snd_una_regression_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        sim, path, sender, auditor = _wire()

        def regress():
            assert sender.snd_una > 0
            auditor.sweep(full=True)  # sync the auditor's last-seen una
            sender.snd_una -= 1
            auditor.sweep(full=True)

        sim.schedule_at(2.0, regress)
        with pytest.raises(InvariantViolation) as exc_info:
            sim.run(until=4.0)
        assert exc_info.value.check == "ack-monotone"

    def test_record_exception_dumps_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        sim, path, sender, auditor = _wire()

        def boom():
            raise RuntimeError("engine callback exploded")

        sim.schedule_at(2.0, boom)
        with pytest.raises(RuntimeError):
            sim.run(until=4.0)
        trace_path = auditor.record_exception(RuntimeError("engine callback exploded"))
        closing = read_trace(trace_path)[-1]
        assert closing["kind"] == "audit.dump"
        assert "engine callback exploded" in closing["exception"]


def _violation_dump():
    """Run ``_wire`` with a conservation leak at t=2; the dump's path."""
    sim, path, sender, auditor = _wire()

    def leak():
        path.forward_link.queue.enqueued += 1

    sim.schedule_at(2.0, leak)
    with pytest.raises(InvariantViolation) as exc_info:
        sim.run(until=4.0)
    return exc_info.value.trace_path


def _exception_dump():
    """Run ``_wire`` with a callback raising at t=2; the dump's path."""
    sim, path, sender, auditor = _wire()

    def boom():
        raise RuntimeError("engine callback exploded")

    sim.schedule_at(2.0, boom)
    with pytest.raises(RuntimeError) as exc_info:
        sim.run(until=4.0)
    return auditor.record_exception(exc_info.value)


class TestDumpIsATrace:
    def test_exception_dump_is_stamped_at_the_failure(
            self, tmp_path, monkeypatch):
        from repro.obs import tracing

        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path / "audit"))
        telemetry = str(tmp_path / "telemetry.jsonl")
        with tracing(telemetry):
            dump = _exception_dump()
        (cross_ref,) = [r for r in read_trace(telemetry)
                        if r["kind"] == "audit.dump"]
        assert cross_ref["t"] == 2.0
        assert cross_ref == read_trace(dump)[-1]

    def test_dumps_are_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        first, second = (read_trace(_violation_dump()) for _ in range(2))
        for records in (first, second):
            records[-1].pop("path")
        assert first[1:] == second[1:]
        # The ring holds partial callbacks (the links' delivery hops),
        # named without memory addresses.
        callbacks = [r["callback"] for r in first
                     if r["kind"] == "audit.event"]
        assert any("(" in c for c in callbacks)
        assert not any(" at 0x" in c for c in callbacks)

    @pytest.mark.parametrize("make,expected", [
        (_violation_dump, ["[conservation]", "packets entered the queue"]),
        (_exception_dump, ["exception: RuntimeError: engine callback "
                           "exploded"]),
    ])
    def test_repro_trace_reads_a_dump(self, tmp_path, monkeypatch, capsys,
                                      make, expected):
        from repro.__main__ import main

        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        dump = make()
        capsys.readouterr()
        main(["trace", dump])
        out = capsys.readouterr().out
        assert "Audit:" in out
        for text in expected:
            assert text in out


# ----------------------------------------------------------------------
# Batch / parallel plumbing
# ----------------------------------------------------------------------
class TestBatchPlumbing:
    def test_shootout_audited_serial_and_parallel(self):
        from repro.experiments.algorithms import run_shootout

        kwargs = dict(
            names=["PR(M)", "CUBIC"], duration=3.0, measure_start=0.5,
            run_options=RunOptions(audit=True),
        )
        serial = run_shootout(_trace(), n_jobs=1, **kwargs)
        parallel = run_shootout(_trace(), n_jobs=2, **kwargs)
        for name in kwargs["names"]:
            assert serial[name].throughput == parallel[name].throughput

    def test_scenario_grid_audited(self):
        # The WiredLink data path, audited.
        from repro.experiments.scenarios import wired_path

        result = wired_path(Cubic, duration=3.0, measure_start=0.5, audit=True)
        assert result.throughput > 0

    def test_frontier_audited(self):
        from repro.experiments.frontier import sweep_frontier

        points = sweep_frontier(
            _trace(), targets=[0.040], duration=3.0, measure_start=0.5,
            run_options=RunOptions(audit=True),
        )
        assert points[0].throughput_kbps > 0


class TestScoreboardInvariants:
    """Checks of the interval-run scoreboards, run on every ACK sweep."""

    @pytest.fixture(autouse=True)
    def _every_ack_sweep(self, monkeypatch):
        monkeypatch.setattr(auditor_module, "DEFAULT_PIPE_CHECK_EVERY", 1)

    def _wire_fast_checks(self):
        """Like ``_wire``; the fixture checks scoreboards every ACK sweep."""
        sim = Simulator()
        path = DuplexPath(sim, cellular_path_config(_trace()))
        auditor = InvariantAuditor(sim)
        forward_audit, _ = auditor.attach_path(path)
        receiver = TcpReceiver(sim, 0, send_ack=path.send_reverse)
        sender = TcpSender(
            sim, 0, PropRate(target_buffer_delay=0.040),
            send_packet=path.send_forward,
        )
        path.attach_flow(0, receiver.receive, sender.on_ack_packet)
        auditor.attach_flow(sender, receiver, data_link=forward_audit)
        sender.start()
        return sim, path, sender, receiver, auditor

    def test_clean_run_with_per_ack_scoreboard_checks(self):
        sim, path, sender, receiver, auditor = self._wire_fast_checks()
        sim.run(until=4.0)
        assert auditor.violations == []
        assert sender.acks_received > 0

    def test_corrupt_sender_scoreboard_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        sim, path, sender, receiver, auditor = self._wire_fast_checks()

        def corrupt():
            # An empty run violates structure but contributes nothing
            # to the pipe reconstruction, so the structural check (not
            # pipe-accounting) must be what trips.
            m = sender.scoreboard._map
            m._starts.append(10**6)
            m._ends.append(10**6)
            m._tags.append(1)

        sim.schedule_at(2.0, corrupt)
        with pytest.raises(InvariantViolation) as exc_info:
            sim.run(until=4.0)
        assert exc_info.value.check == "scoreboard-structure"

    def test_ooo_overlapping_rcv_nxt_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        sim, path, sender, receiver, auditor = self._wire_fast_checks()

        def corrupt():
            assert receiver.rcv_nxt > 0
            # A stored segment at the cumulative edge should have been
            # consumed by the rcv_nxt advance.  Sweep synchronously:
            # the next in-order arrival would legitimately consume it.
            receiver._ooo.add(receiver.rcv_nxt)
            auditor.sweep(full=True)

        sim.schedule_at(2.0, corrupt)
        with pytest.raises(InvariantViolation) as exc_info:
            sim.run(until=4.0)
        assert exc_info.value.check == "receiver-ooo"

    def test_unbacked_sack_block_detected(self, tmp_path, monkeypatch):
        from repro.sim.packet import SackBlock

        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        sim, path, sender, receiver, auditor = self._wire_fast_checks()

        def corrupt():
            # Keep the store non-empty and legal, but forge a block the
            # store does not back.
            receiver._ooo.add(receiver.rcv_nxt + 50)
            receiver._sack_blocks = lambda: [
                SackBlock(receiver.rcv_nxt + 100, receiver.rcv_nxt + 102)
            ]
            # Sweep before the receiver can emit the forged block on a
            # real ACK (which would corrupt the sender's pipe instead).
            auditor.sweep(full=True)

        sim.schedule_at(2.0, corrupt)
        with pytest.raises(InvariantViolation) as exc_info:
            sim.run(until=4.0)
        assert exc_info.value.check == "receiver-ooo"
        assert "not fully backed" in exc_info.value.detail


# ----------------------------------------------------------------------
# Multi-flow tolerance scaling and the band constants
# ----------------------------------------------------------------------
class _StaleDelayEstimator:
    """A delay estimator frozen at an absurd over-read.

    Feedback is swallowed (``on_ack`` is a no-op), so the sender keeps
    acting on a t_buff reading that never decays — the exact failure
    mode the estimator band exists to catch.
    """

    tbuff_smooth = 10.0

    def on_ack(self, now, one_way_delay):
        pass

    def __setattr__(self, name, value):
        pass  # stays frozen even if the CC pokes at it


def _wire_contention(n: int, stagger: float = 0.5):
    """``n`` staggered PropRate flows sharing one audited bottleneck."""
    sim = Simulator()
    path = DuplexPath(
        sim, cellular_path_config(constant_rate_trace(1.5e6, 14.0))
    )
    auditor = InvariantAuditor(sim)
    forward_audit, _ = auditor.attach_path(path)
    senders = []
    for i in range(n):
        receiver = TcpReceiver(sim, i, send_ack=path.send_reverse)
        sender = TcpSender(
            sim, i, PropRate(target_buffer_delay=0.040),
            send_packet=path.send_forward,
        )
        path.attach_flow(i, receiver.receive, sender.on_ack_packet)
        auditor.attach_flow(sender, receiver, data_link=forward_audit)
        sim.schedule_at(i * stagger, sender.start)
        senders.append(sender)
    return sim, path, senders, auditor, forward_audit


class TestMultiFlowTolerance:
    def test_four_flow_cubic_contention_audits_clean(self):
        # Regression (ROADMAP carry-over): the single-flow t_buff band
        # must not trip spuriously when four flows contend.
        trace = constant_rate_trace(1.5e6, 10.0)
        flows = [
            FlowSpec(
                cc_factory=Cubic, name=f"cubic{i}", start=0.5 * i,
                measure_start=3.0,
            )
            for i in range(4)
        ]
        results = run_experiment(
            cellular_path_config(trace), flows, duration=9.0, audit=True
        )
        assert len(results) == 4
        assert sum(r.delivered_bytes for r in results) > 0

    def test_four_flow_proprate_contention_audits_clean(self):
        # Same regression for the estimator-bearing sender: PropRate's
        # t_buff is checked against the shared-queue sojourn, so this
        # exercises the flow-scaled band directly.
        trace = constant_rate_trace(1.5e6, 10.0)
        flows = [
            FlowSpec(
                cc_factory=lambda: PropRate(target_buffer_delay=0.040),
                name=f"pr{i}", start=0.5 * i, measure_start=3.0,
            )
            for i in range(4)
        ]
        results = run_experiment(
            cellular_path_config(trace), flows, duration=9.0, audit=True
        )
        assert len(results) == 4

    def test_tbuff_band_scales_with_active_flows(self):
        sim, path, senders, auditor, forward_audit = _wire_contention(4)
        bands = []
        # By t=2.5 all four staggered flows have started; none complete.
        sim.schedule_at(2.5, lambda: bands.append(
            auditor._tbuff_band(forward_audit)
        ))
        sim.run(until=3.0)
        assert bands == [pytest.approx(4 * DEFAULT_TBUFF_TOLERANCE)]

    def test_stale_estimator_still_trips_at_scaled_tolerance(
        self, tmp_path, monkeypatch
    ):
        # The widened band must stay a real check: an estimator frozen
        # far above the 4-flow band (4 x 150 ms) still trips.
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        sim, path, senders, auditor, _ = _wire_contention(4)

        def go_stale():
            senders[0].cc.delay_estimator = _StaleDelayEstimator()

        sim.schedule_at(3.0, go_stale)
        with pytest.raises(InvariantViolation) as exc_info:
            sim.run(until=12.0)
        assert exc_info.value.check == "estimator-tbuff"


class TestAuditConfig:
    """Audit is on or off; the bands are module constants, and tests
    narrow them by monkeypatching those constants."""

    def test_overrides_reach_the_auditor(self, monkeypatch):
        monkeypatch.setattr(auditor_module, "DEFAULT_TBUFF_TOLERANCE", 0.5)
        sim, path, senders, auditor, forward_audit = _wire_contention(1)
        # No flow has started yet: the band is the single-flow constant.
        assert auditor._tbuff_band(forward_audit) == 0.5

    def test_config_threads_through_run_experiment(self, tmp_path, monkeypatch):
        # An impossibly tight band + a one-ACK sustain must trip on a
        # clean run if (and only if) the constants reach the auditor
        # that run_single_flow builds.
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(auditor_module, "DEFAULT_TBUFF_TOLERANCE", -10.0)
        monkeypatch.setattr(auditor_module, "DEFAULT_SUSTAIN", 1)
        with pytest.raises(InvariantViolation) as exc_info:
            run_single_flow(
                lambda: PropRate(target_buffer_delay=0.040),
                constant_rate_trace(750_000.0, 8.0),
                duration=6.0, measure_start=1.0, audit=True,
            )
        assert exc_info.value.check == "estimator-tbuff"
