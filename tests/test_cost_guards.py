"""Deterministic cost guards: counts, not timings.

Each test runs one fixed simulation and counts how often a piece of
work that should happen on change — not on every call — actually
happened.  The counts depend on the inputs alone, so the bounds hold on
any host; they are set a few times above what the runs do today and far
below what they did when the work was per call.
"""

import bisect
import fractions
import sys
from unittest import mock

import numpy as np

import repro.core.proprate as proprate_module
from repro.core.adaptive import TargetAdjuster
from repro.core.proprate import PropRate
from repro.experiments.algorithms import paper_algorithms
from repro.experiments.runner import (
    FlowSpec,
    cellular_path_config,
    run_experiment,
    run_single_flow,
)
from repro.metrics.collector import DeliveryRecord
from repro.tcp.application import OnOffApplication
from repro.tcp.congestion.base import CongestionControl
from repro.tcp.congestion.cubic import Cubic
from repro.util.intervals import RunMap
from tests.helpers import isp_traces


def test_operating_point_is_derived_on_change_not_per_ack():
    """Eqs. 7-8 are evaluated when the threshold, the base RTT, L_max or
    the target moved — about once per NFL epoch — not once per ACK."""
    calls = [0]
    real = proprate_module.params_for_threshold

    def counted(*args):
        calls[0] += 1
        return real(*args)

    down, up = isp_traces("A", "stationary", 5.0)
    with mock.patch.object(proprate_module, "params_for_threshold", counted):
        result = run_single_flow(paper_algorithms()["PR(M)"], down, up,
                                 duration=5.0, measure_start=1.0)
    acks = result.sender.acks_received
    assert acks > 3000
    assert 0 < calls[0] < 0.02 * acks, (calls[0], acks)


def test_paced_retransmission_does_not_rewalk_the_recovered_prefix():
    """Per claim, the scoreboard steps over the runs between where the
    last claim ended and the next pending run — not over everything
    retransmitted or SACKed since ``snd_una``."""
    visited = [0]
    real = RunMap.claim_first

    def counted(self, tag, new_tag, start, limit):
        if limit > 0 and self.count(tag) > 0:
            # The runs the search will look at: from the first one that
            # ends past ``start`` up to the first carrying ``tag``.
            first = j = bisect.bisect_right(self._ends, start)
            tags = self._tags
            while j < len(tags) and tags[j] != tag:
                j += 1
            visited[0] += j - first + (j < len(tags))
        return real(self, tag, new_tag, start, limit)

    down, up = isp_traces("A", "mobile", 6.0)
    with mock.patch.object(RunMap, "claim_first", counted):
        result = run_single_flow(paper_algorithms()["PR(M)"], down, up,
                                 duration=6.0, measure_start=1.0,
                                 buffer_packets=40)
    assert result.retransmissions > 300
    assert visited[0] < 2 * result.retransmissions, (
        visited[0], result.retransmissions)


def test_onoff_source_constructs_no_fraction():
    """The application's segment count is integer arithmetic; rational
    arithmetic was a third of an app-limited run.  ``hypothesis`` imports
    ``fractions``, so the witness is construction, not ``sys.modules``."""
    built = [0]
    real = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return real(cls, *args, **kwargs)

    down, up = isp_traces("A", "stationary", 3.0)
    flows = [FlowSpec(
        cc_factory=paper_algorithms()["CUBIC"], name="onoff",
        application=OnOffApplication(rate=2e6, on_seconds=0.05,
                                     off_seconds=0.15),
    )]
    with mock.patch.object(fractions.Fraction, "__new__",
                           staticmethod(counted)):
        fractions.Fraction(1, 2)
        assert built[0] == 1, "the counter is not armed"
        built[0] = 0
        results = run_experiment(cellular_path_config(down, up), flows,
                                 duration=3.0, measure_start=0.5)
    assert results[0].delivered_bytes > 0
    assert built[0] == 0
    assert fractions.Fraction.__new__ is real


def _counting(calls):
    """A stand-in for a method that counts its entries, then runs it."""
    def wrap(real):
        def counted(self, *args, **kwargs):
            calls[0] += 1
            return real(self, *args, **kwargs)
        return counted
    return wrap


def test_delivery_collector_builds_no_record_objects():
    """Deliveries are appended to columns; a ``DeliveryRecord`` is only
    materialised when ``records`` is read."""
    built = [0]
    down, up = isp_traces("A", "stationary", 5.0)
    with mock.patch.object(DeliveryRecord, "__init__",
                           _counting(built)(DeliveryRecord.__init__)):
        DeliveryRecord(0.0, 0, 0.0, 0, False)
        assert built[0] == 1, "the counter is not armed"
        built[0] = 0
        result = run_single_flow(paper_algorithms()["PR(M)"], down, up,
                                 duration=5.0, measure_start=1.0)
        assert len(result.collector) > 3000
        assert built[0] == 0
        assert len(result.collector.records) == len(result.collector)


def test_no_op_packet_sent_hook_is_not_called():
    """The base ``on_packet_sent`` does nothing, so the sender skips it
    for a class that does not override it — and still calls an
    override once per transmission."""
    base_calls, override_calls = [0], [0]
    down, up = isp_traces("A", "stationary", 5.0)
    with mock.patch.object(
            CongestionControl, "on_packet_sent",
            _counting(base_calls)(CongestionControl.on_packet_sent)), \
         mock.patch.object(
            PropRate, "on_packet_sent",
            _counting(override_calls)(PropRate.on_packet_sent)):
        Cubic().on_packet_sent(0, 0.0, False)
        assert base_calls[0] == 1, "the counter is not armed"
        base_calls[0] = 0
        cubic = run_single_flow(Cubic, down, up, duration=5.0,
                                measure_start=1.0)
        prm = run_single_flow(paper_algorithms()["PR(M)"], down, up,
                              duration=5.0, measure_start=1.0)
    assert cubic.sender.segments_sent > 3000
    assert base_calls[0] == 0
    assert override_calls[0] == prm.sender.segments_sent


def test_adaptive_rule_is_not_entered_per_ack():
    """PR(A) hands its ACKs to the §6 rule only once the rule's
    ``quiet_due`` time has come; on a loss-free run the target stays
    at its ceiling and the rule is never due."""
    entries = [0]
    down, up = isp_traces("A", "stationary", 5.0)
    with mock.patch.multiple(
            TargetAdjuster,
            on_loss=_counting(entries)(TargetAdjuster.on_loss),
            on_rto=_counting(entries)(TargetAdjuster.on_rto),
            on_quiet=_counting(entries)(TargetAdjuster.on_quiet)):
        TargetAdjuster(0.040, 0.005).on_quiet(0.0, np.ones(1, dtype=bool))
        assert entries[0] == 1, "the counter is not armed"
        entries[0] = 0
        result = run_single_flow(paper_algorithms()["PR(A)"], down, up,
                                 duration=5.0, measure_start=1.0)
    acks = result.sender.acks_received
    assert acks > 3000
    assert result.retransmissions == 0 and result.rto_count == 0
    assert entries[0] < 0.01 * acks, (entries[0], acks)


#: Python calls into ``repro`` code per delivered data packet on the
#: fixed PR(M) + CUBIC pair below.  Measured on CPython 3.11: 74.2
#: before the per-packet path was flattened (DESIGN.md §12), 60.1 after.
CALLS_PER_PACKET_BOUND = 66.0


def test_python_calls_per_delivered_packet():
    """Counts every Python frame entered in ``repro`` modules over two
    fixed 5 s runs: the frames a data packet and its ACK cross."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get(
                "__name__", "").startswith("repro."):
            calls[0] += 1

    down, up = isp_traces("A", "stationary", 5.0)
    down.compiled(), up.compiled()  # memoised per trace: keep them out
    delivered = 0
    for name in ("PR(M)", "CUBIC"):
        factory = paper_algorithms()[name]
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = run_single_flow(factory, down, up, duration=5.0,
                                     measure_start=1.0)
        finally:
            sys.setprofile(previous)
        delivered += len(result.collector)
    assert delivered > 6000
    per_packet = calls[0] / delivered
    assert per_packet < CALLS_PER_PACKET_BOUND, per_packet
