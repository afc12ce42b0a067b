"""Tests for the :mod:`repro.debug` invariant auditor and flight recorder.

The positive direction — audited runs are clean and bit-identical to
unaudited ones — and the negative direction: deliberately corrupted
simulator state must trip the matching check and dump a parseable
flight-recorder trace.
"""

import json
import os

import pytest

import repro.debug.auditor as auditor_module
import repro.experiments.runner as runner_module
from repro.core.proprate import PropRate
from repro.debug import (
    AUDIT_ENV,
    FlightRecorder,
    InvariantAuditor,
    InvariantViolation,
    audit_enabled,
)
from repro.debug.auditor import DEFAULT_TBUFF_TOLERANCE
from repro.debug.recorder import TRACE_DIR_ENV
from repro.experiments.options import RunOptions
from repro.experiments.runner import (
    FlowSpec,
    cellular_path_config,
    run_experiment,
    run_single_flow,
)
from repro.sim.engine import Simulator
from repro.sim.network import DuplexPath
from repro.tcp.congestion.cubic import Cubic
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.traces.generator import constant_rate_trace
from tests.helpers import drive_bursts

DURATION = 6.0
WARMUP = 1.0


def _trace(rate: float = 750_000.0, duration: float = DURATION + 2.0):
    return constant_rate_trace(rate, duration)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_retains_last_n(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(float(i), "k", i)
        assert len(rec) == 4
        assert rec.recorded == 10
        snap = rec.snapshot()
        assert [e["detail"] for e in snap] == [6, 7, 8, 9]
        assert [e["t"] for e in snap] == [6.0, 7.0, 8.0, 9.0]

    def test_snapshot_renders_live_objects(self):
        rec = FlightRecorder(capacity=4)

        def some_callback():
            pass  # pragma: no cover - never called

        rec.record(1.0, "event", some_callback)
        (entry,) = rec.snapshot()
        assert "some_callback" in entry["detail"]

    def test_engine_ring_merges_by_time(self):
        rec = FlightRecorder(capacity=8)
        # Engine entries arrive via the inline ring.
        for i, t in enumerate([0.0, 1.0, 2.0]):
            j = rec.ring_count[0] & (rec.ring_capacity - 1)
            rec.ring_times[j] = t
            rec.ring_details[j] = f"cb{i}"
            rec.ring_count[0] += 1
        rec.record(1.0, "sender", {"una": 3})
        snap = rec.snapshot()
        assert [e["kind"] for e in snap] == ["event", "event", "sender", "event"]
        assert rec.recorded == 4

    def test_dump_writes_parseable_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        rec = FlightRecorder(capacity=4)
        rec.record(0.5, "k", "detail")
        path = rec.dump(violations=[{"check": "x", "message": "boom"}])
        assert path.startswith(str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["format"].startswith("repro.debug.flight-recorder")
        assert payload["violations"][0]["check"] == "x"
        assert payload["events"][0]["detail"] == "detail"

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


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
        assert auditor._events_seen > 0
        assert auditor.violations == []


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
        # The dumped trace is parseable and carries context.
        trace_path = exc_info.value.trace_path
        assert trace_path is not None and os.path.exists(trace_path)
        with open(trace_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["violations"][0]["check"] == "conservation"
        assert len(payload["events"]) > 0
        assert payload["context"]["events_seen"] > 0

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
        with open(trace_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert "engine callback exploded" in payload["context"]["exception"]


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
