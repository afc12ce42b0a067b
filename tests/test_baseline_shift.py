"""Baseline one-way-delay shifts (handover / signal change, paper §4.1).

The buffer-delay estimator anchors on the minimum relative one-way
delay.  A *drop* in the underlying delay self-heals instantly (the new,
lower RD becomes the baseline).  A *rise* makes every estimate read too
high until the old minimum ages out of the window — the flow drains
conservatively in the meantime but must keep working and recover.
"""

from functools import partial

import pytest

from repro.core.estimators import BufferDelayEstimator
from repro.core.proprate import PropRate
from repro.experiments.runner import cellular_path_config
from repro.sim.engine import Simulator
from repro.sim.network import DuplexPath
from repro.metrics.collector import DeliveryCollector
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.traces.generator import constant_rate_trace


def _run_with_shift(shift_delta, shift_at=8.0, duration=30.0, rdmin_window=10.0):
    sim = Simulator()
    trace = constant_rate_trace(1.5e6, duration + 1.0)
    path = DuplexPath(sim, cellular_path_config(trace))
    collector = DeliveryCollector()
    recv = TcpReceiver(sim, 0, send_ack=path.send_reverse, on_data=collector.on_data)
    cc = PropRate(
        0.040, delay_estimator=partial(BufferDelayEstimator, window=rdmin_window)
    )
    sender = TcpSender(sim, 0, cc, send_packet=path.send_forward)
    path.attach_flow(0, recv.receive, sender.on_ack_packet)
    sender.start()

    def shift():
        path.forward_link.prop_delay += shift_delta

    sim.schedule_at(shift_at, shift)
    sim.run(until=duration)
    return collector, cc, sender


class TestBaselineRise:
    def test_flow_survives_and_recovers(self):
        collector, cc, sender = _run_with_shift(+0.030)
        # Recovery window: after the old baseline aged out (8 + 10 s).
        late = collector.throughput(22.0, 30.0)
        assert late > 0.8 * 1.5e6

    def test_conservative_during_confusion(self):
        """While the stale baseline inflates the estimate, the flow leans
        on Drain/Monitor — throughput dips rather than queue explosion."""
        collector, cc, sender = _run_with_shift(+0.030)
        during = collector.delays(9.0, 16.0)
        if during.size:
            # One-way delay = 20 ms old prop + 30 ms shift + queue; the
            # queue must stay small because the flow believes it is big.
            assert during.mean() < 0.050 + 0.080

    def test_estimator_rebaselines_after_window(self):
        collector, cc, sender = _run_with_shift(+0.030)
        # By the end, t_buff reads small again (new baseline adopted).
        assert cc.delay_estimator.tbuff_smooth is not None
        assert cc.delay_estimator.tbuff_smooth < 0.050


class TestBaselineDrop:
    def test_drop_self_heals_immediately(self):
        collector, cc, sender = _run_with_shift(-0.010)
        late = collector.throughput(12.0, 30.0)
        assert late > 0.8 * 1.5e6

    def test_delay_stays_regulated_after_drop(self):
        """The new, lower baseline is adopted at once: the buffer delay
        keeps being regulated around the target rather than drifting
        (one-way delay stays bounded by prop + ~2x target)."""
        collector, cc, sender = _run_with_shift(-0.010)
        after = collector.delays(20.0, 30.0)
        assert after.size
        assert after.mean() < 0.010 + 0.040 * 2 + 0.020


class TestShiftBelowZero:
    """A shift that would make the propagation delay negative is rejected
    where it is applied, naming the link, not later in the event loop."""

    def _shift(self, delta):
        from repro.experiments.algorithms import paper_algorithms
        from repro.experiments.scenarios import baseline_shift
        from repro.traces.presets import isp_trace

        return baseline_shift(
            paper_algorithms()["PR(M)"], isp_trace("A", "stationary", duration=8.0),
            delta, shift_at=2.0, duration=5.0, measure_start=1.0)

    def test_negative_delay_fails_at_the_shift(self):
        with pytest.raises(ValueError, match=r"prop_delay must be >= 0") as info:
            self._shift(-0.05)
        assert "-0.03" in str(info.value) and "cannot schedule" not in str(info.value)

    def test_shift_that_stays_non_negative_runs(self):
        assert self._shift(-0.01).throughput > 0
