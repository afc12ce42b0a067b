"""PropRate's two memos against the from-scratch oracle.

``PropRate`` re-derives its operating point (Eqs. 7-8) and its in-flight
cap only when an input differs from the previous call's.  Every run
below goes through :func:`tests.reference.proprate.proprate_oracle`,
which recomputes both at every ACK and every pacing tick and asserts the
algorithm holds exactly that — across the fixed targets, the adaptive
target, env actions that move the target, the threshold and the gains
between ACKs, and a timeout that sends the algorithm back to Slow Start.
"""

import pytest

from repro.core.adaptive import retarget
from repro.core.proprate import PropRate
from repro.env import CcEnv
from repro.experiments.algorithms import paper_algorithms
from repro.experiments.runner import run_single_flow
from repro.traces.generator import constant_rate_trace
from repro.traces.trace import Trace
from tests.helpers import AckFeeder, FakeHost, isp_traces
from tests.reference.proprate import proprate_oracle

DURATION = 6.0


@pytest.mark.parametrize("algo", ["PR(L)", "PR(M)", "PR(H)"])
def test_fixed_targets_hold_the_scratch_derivation(algo):
    down, up = isp_traces("A", "stationary", DURATION)
    with proprate_oracle() as counts:
        result = run_single_flow(paper_algorithms()[algo], down, up,
                                 duration=DURATION, measure_start=1.0)
    assert result.delivered_bytes > 0
    assert counts.acks > 1000 and counts.capped_ticks > 1000
    # The NFL moved the threshold, so more than one operating point was
    # held — and far fewer than there were ACKs.
    assert 1 < len(counts.params_seen) < counts.acks / 50
    assert len(counts.caps_seen) > 1


def test_adaptive_target_invalidates_both_memos():
    down, up = isp_traces("A", "mobile", DURATION)
    with proprate_oracle() as counts:
        result = run_single_flow(paper_algorithms()["PR(A)"], down, up,
                                 duration=DURATION, measure_start=1.0,
                                 buffer_packets=40)
    assert result.bottleneck_drops > 0
    assert len(counts.targets_seen) > 1, "the target never moved"
    assert counts.acks > 1000 and counts.capped_ticks > 1000
    assert counts.zeroed_ticks > 0, "the in-flight cap never bit"


def test_env_actions_between_acks_invalidate_both_memos():
    """``target`` and ``threshold`` actions change a memo input between
    two ACKs; ``kf``/``kd`` overrides must leave ``params`` alone."""
    script = {
        6: {"target": 0.060},
        9: {"threshold": 0.035},
        12: {"kf": 1.3, "kd": 0.7},
        15: {"target": 0.020, "threshold": 0.012},
        18: {"kf": None, "kd": None},
    }
    env = CcEnv(constant_rate_trace(1.5e6, 12.0), duration=DURATION,
                measure_start=1.0, inner_cc=lambda: PropRate(0.040))
    try:
        with proprate_oracle() as counts:
            env.reset()
            step, done = 0, False
            while not done:
                _, _, done, _ = env.step(script.get(step))
                step += 1
        inner = env.adapter.inner
    finally:
        env.close()
    assert step > max(script)
    assert counts.targets_seen == {0.040, 0.060, 0.020}
    assert inner.params.target_tbuff == 0.020
    assert len(counts.params_seen) > 3
    assert counts.acks > 1000 and counts.capped_ticks > 1000


def test_rto_and_slow_start_keep_the_memos_exact():
    """A 1.5 s outage: the RTO fires, PropRate re-enters Slow Start with
    its parameters kept, ρ reset and the RTT estimate backed off."""
    times = [k / 1000.0 for k in range(int(DURATION * 1000))
             if not 2.0 <= k / 1000.0 < 3.5]
    down = Trace(times, duration=DURATION, name="outage")
    with proprate_oracle() as counts:
        result = run_single_flow(paper_algorithms()["PR(M)"], down,
                                 duration=DURATION, measure_start=0.5)
    assert result.rto_count >= 1, "the outage produced no RTO"
    assert counts.acks > 1000 and counts.capped_ticks > 1000


def test_each_cap_input_alone_invalidates_the_cap_between_two_ticks():
    """No ACK between the ticks: ``params`` stays the same object, so
    the other four inputs of the cap have to be in its key themselves."""
    cc = PropRate(target_buffer_delay=0.040)
    host = FakeHost(srtt=0.05, min_rtt=0.04)
    feeder = AckFeeder(cc, host)
    with proprate_oracle() as counts:
        feeder.run(400, dt=0.004)
        assert cc.params is not None and cc.rho is not None
        cc.on_tick(host.now)
        params = cc.params
        for change in (
            lambda: retarget(cc, 0.200),            # target above threshold
            lambda: setattr(host, "srtt", 0.9),
            lambda: setattr(host, "srtt", None),
            lambda: setattr(host, "min_rtt", 0.3),  # base RTT
            lambda: setattr(cc, "_rho_hold", cc.rho * 3.0),
        ):
            before = cc._cap_packets
            change()
            cc.on_tick(host.now)  # the oracle recomputes and compares
            assert cc._cap_packets != before
            cc.on_tick(host.now)
        assert cc.params is params
    assert counts.capped_ticks == 11
