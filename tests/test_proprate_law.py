"""PropRate's control-law constants and boundaries, each pinned on both
sides.

Each test puts a warmed PropRate into one decision of its state machine
with the estimator readings set exactly, and checks the decision just
inside and just outside the boundary.  The full-run tests cannot see
these: moving the Drain progress factor, the Monitor acceptance factor,
the NFL warm-up or the strictness of the Fill exit changes every result
a little and fails no band.
"""

from types import SimpleNamespace

import pytest

from repro.core.proprate import PropRate, PropRateState

from tests.helpers import AckFeeder, FakeHost


@pytest.fixture
def cc():
    """A PropRate that has left Slow Start on a steady ACK stream."""
    cc = PropRate(target_buffer_delay=0.040)
    feeder = AckFeeder(cc, FakeHost(srtt=0.05, min_rtt=0.04))
    for _ in range(400):
        feeder.ack(dt=0.004)
        if cc.state is PropRateState.FILL:
            return cc
    raise AssertionError(f"never left slow start: {cc.state}")


def _set_tbuff(cc, tbuff):
    cc.delay_estimator._smooth.value = tbuff


class TestFillExit:
    def test_fill_holds_at_exactly_the_threshold(self, cc):
        _set_tbuff(cc, cc.params.threshold)
        cc._fill_drain_step(None)
        assert cc.state is PropRateState.FILL

    def test_fill_exits_just_above_the_threshold(self, cc):
        _set_tbuff(cc, cc.params.threshold * (1 + 1e-9))
        cc._fill_drain_step(None)
        assert cc.state is PropRateState.DRAIN


class TestDrainProgress:
    """At the Drain cap, a buffer delay below 0.8 of the delay at entry
    counts as progress (keep draining); anything else forces Monitor."""

    def _at_cap(self, cc, fraction):
        entry = 10 * cc.params.threshold
        _set_tbuff(cc, entry)
        cc._enter_drain()
        assert cc._drain_entry_tbuff == entry
        cc._drain_sent = cc._drain_packet_cap()
        _set_tbuff(cc, fraction * entry)
        cc._fill_drain_step(None)
        return entry

    def test_falling_below_the_factor_keeps_draining(self, cc):
        entry = self._at_cap(cc, 0.75)
        assert cc.state is PropRateState.DRAIN
        assert cc._drain_sent == 0
        assert cc._drain_entry_tbuff == 0.75 * entry

    def test_falling_short_of_the_factor_enters_monitor(self, cc):
        self._at_cap(cc, 0.85)
        assert cc.state is PropRateState.MONITOR


class TestMonitorAcceptance:
    """A Monitor probe that measures at least 0.9 of the rate held at
    entry resumes Fill; a lower one is adopted and Drain resumes."""

    def _probe(self, cc, fraction):
        cc._enter_monitor()
        before = cc._monitor_rho_before
        cc.rate_estimator = SimpleNamespace(has_estimate=True,
                                            rate=fraction * before)
        cc._monitor_step(None)
        return before

    def test_probe_at_the_factor_resumes_fill(self, cc):
        before = self._probe(cc, 0.95)
        assert cc.state is PropRateState.FILL
        assert cc._rho_hold == before

    def test_probe_below_the_factor_drains_at_the_fresh_rate(self, cc):
        before = self._probe(cc, 0.85)
        assert cc.state is PropRateState.DRAIN
        assert cc._rho_hold == 0.85 * before


class TestNflWarmup:
    """The NFL may move T only once Fill/Drain has run 1.5 s."""

    def test_first_window_sample_lands_at_the_warmup(self, cc):
        seen = []
        cc.feedback.on_window_sample = (
            lambda tbuff, state_is_fill, now: seen.append(now))
        cc._nfl_started_at = None
        _set_tbuff(cc, cc.params.threshold)
        for now in (10.0, 10.75, 11.49, 11.5, 12.0):
            cc._feedback_step(SimpleNamespace(now=now, newly_acked=10 ** 6,
                                              newly_sacked=0))
        assert cc._nfl_started_at == 10.0
        assert seen == [11.5, 12.0]
