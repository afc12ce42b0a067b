"""PropRate's estimator seam and the sender's per-ACK delivery count.

PropRate builds its ρ and t_buff estimators from two zero-argument
factories, so an oracle or an alternative filter is a one-argument swap.
The factories travel inside a :class:`CcSpec`, which must stay picklable
and must build fresh estimators for every run.
"""

import pickle
from functools import partial

import pytest

from repro.core.adaptive import AdaptivePropRate
from repro.core.estimators import BufferDelayEstimator, MaxFilterRateEstimator
from repro.core.proprate import PropRateState
from repro.experiments.parallel import proprate_spec
from repro.experiments.runner import run_single_flow
from repro.tcp.congestion import Cubic
from repro.traces.generator import constant_rate_trace

from tests.helpers import AckFeeder, FakeHost

RHO_FAKE = 1.25e6


class ConstantRate:
    """A ρ estimator that reads RHO_FAKE whatever the ACKs say."""

    rate = RHO_FAKE
    has_estimate = True

    def on_ack(self, receiver_ts: float, delivered_bytes: int) -> None:
        pass

    def reset(self) -> None:
        pass


class TestFactories:
    def test_fake_rate_estimator_sets_the_fill_pace(self):
        cc = proprate_spec(0.040, rate_estimator=ConstantRate).build()
        assert isinstance(cc.rate_estimator, ConstantRate)
        feeder = AckFeeder(cc, FakeHost(srtt=0.05, min_rtt=0.04))
        for _ in range(400):
            feeder.ack(dt=0.004)
            if cc.state is PropRateState.FILL:
                break
        assert cc.state is PropRateState.FILL
        feeder.run(20, dt=0.004)
        assert cc.state is PropRateState.FILL
        assert cc.rho == RHO_FAKE
        assert cc.pacing_rate == cc.params.kf * RHO_FAKE

    def test_adaptive_forwards_the_factories(self):
        cc = AdaptivePropRate(
            rate_estimator=MaxFilterRateEstimator,
            delay_estimator=partial(BufferDelayEstimator, window=8.0),
        )
        assert type(cc.rate_estimator) is MaxFilterRateEstimator
        assert cc.delay_estimator._min_filter.window == 8.0

    def test_each_build_holds_its_own_estimators(self):
        spec = proprate_spec(
            0.040,
            rate_estimator=MaxFilterRateEstimator,
            delay_estimator=partial(BufferDelayEstimator, window=8.0),
        )
        first, second = spec.build(), spec.build()
        assert first.rate_estimator is not second.rate_estimator
        assert first.delay_estimator is not second.delay_estimator
        assert isinstance(first.rate_estimator, MaxFilterRateEstimator)

    @pytest.mark.parametrize(
        "kwargs, check",
        [
            (
                {"rate_estimator": MaxFilterRateEstimator},
                lambda cc: type(cc.rate_estimator) is MaxFilterRateEstimator,
            ),
            (
                {"delay_estimator": partial(BufferDelayEstimator, window=8.0)},
                lambda cc: cc.delay_estimator._min_filter.window == 8.0,
            ),
        ],
        ids=["max-filter-class", "delay-partial"],
    )
    def test_spec_survives_pickle(self, kwargs, check):
        spec = proprate_spec(0.040, **kwargs)
        hash(spec)
        restored = pickle.loads(pickle.dumps(spec))
        assert [k for k, _ in restored.params] == [k for k, _ in spec.params]
        assert check(restored.build())


class _Recording(Cubic):
    """CUBIC that checks the per-ACK delivery count on every ACK."""

    def __init__(self) -> None:
        super().__init__()
        self.running = 0
        self.mismatches = 0
        self.dupacks = 0
        self.sacked = 0

    def on_ack(self, sample):
        self.running += sample.newly_delivered
        if self.running != sample.delivered_total:
            self.mismatches += 1
        self.dupacks += sample.is_dupack
        self.sacked += sample.newly_sacked > 0
        super().on_ack(sample)


def test_newly_delivered_sums_to_delivered_total_under_loss():
    controllers = []

    def factory():
        controllers.append(_Recording())
        return controllers[-1]

    result = run_single_flow(
        factory, constant_rate_trace(1.2e6, 6.0),
        duration=5.0, measure_start=1.0, buffer_packets=20,
    )
    (cc,) = controllers
    assert result.sender.retransmissions > 0
    assert cc.dupacks > 0 and cc.sacked > 0
    assert cc.mismatches == 0
    assert cc.running == result.sender.delivered_total
