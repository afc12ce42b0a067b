"""Differential harness: the fluid step loop against its predecessor.

:func:`tests.reference.fluid.reference_integrate` is the loop as it stood before
its per-step cost was halved — every mask, gather and ``dt`` product
rebuilt at every step, int8 mode comparisons in the PropRate bank,
``** 3`` in the CUBIC bank.  The shipped loop hoists and caches all of
that and cubes by multiplication; the numeric contract is:

* with the shipped CUBIC bank on both sides the two loops are
  **exactly** equal on every scenario (the hoists are exact);
* against the ``** 3`` reference, scenarios without CUBIC flows are
  exactly equal, and CUBIC mixes keep every integer field and differ in
  floats only by rounding — or, for the ``dt``-quantized buffer-delay
  maxima, by the one exit-pointer step that a last-bit difference in
  the queue can flip.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid import (
    FluidFlowSpec,
    HandoverSpec,
    TowerSpec,
    fan_in_scenario,
    run_fluid,
)
from repro.traces.trace import Trace

from tests.reference.fluid import reference_integrate

RATE = 1e6  # bytes/s

#: Relative float tolerance against the ``** 3`` reference (CUBIC mixes).
CUBE_RTOL = 1e-4


def _pr(name, **kw):
    return FluidFlowSpec(name=name, controller="proprate", **kw)


def _cubic(name, **kw):
    return FluidFlowSpec(name=name, controller="cubic", **kw)


def _outage_trace() -> Trace:
    """2 s schedule at ~1 MB/s with a 300 ms outage, looped by the tower."""
    times = np.arange(0.0, 2.0, 0.0015)
    times = times[(times < 0.9) | (times >= 1.2)]
    return Trace(times, duration=2.0, name="outage")


def _sine_policy(t, view):
    """Deterministic open-loop policy: rates wobble around fair share and
    back off with the lagged delay."""
    n = view["rtt"].size
    base = RATE / n * (1.2 + 0.5 * math.sin(3.0 * t))
    return base / (1.0 + 4.0 * view["observed_tbuff"]) + 1e3 * np.arange(n)


def _windows(kind):
    """Flows whose starts sit exactly on grid instants (0.5 = 100·dt),
    between them, after ``measure_start`` and after ``measure_end``."""
    starts = (0.0, 0.5, 0.5025, 1.0, 2.2, 3.0, 3.7)
    return [kind(f"f{i}", start=s, tower=i % 2,
                 target_tbuff=(0.040, 0.080, 0.150)[i % 3],
                 rtt=(0.040, 0.025, 0.100)[i % 3])
            for i, s in enumerate(starts)]


def _mixed_windows():
    flows = _windows(_pr)
    return [
        _cubic(f.name, start=f.start, tower=f.tower, rtt=f.rtt)
        if i % 2 else f
        for i, f in enumerate(flows)
    ]


def _fan_in():
    flows, towers, plan = fan_in_scenario(
        60, 3, 5.0, mix="pr-heavy", handover_count=10, seed=5)
    return flows, towers, 5.0, dict(measure_start=1.0, handovers=plan)


def _bench_fan_in():
    """The benchmark's fan-in shape, smaller: PropRate against CUBIC,
    eight constant-rate towers, handovers mid-run."""
    flows, towers, plan = fan_in_scenario(
        400, 8, 4.0, mix="pr-vs-cubic", handover_count=40, seed=3)
    return flows, towers, 4.0, dict(measure_start=4.0 / 6.0, handovers=plan)


TWO_TOWERS = [TowerSpec(rate=RATE, buffer_packets=120),
              TowerSpec(rate=2 * RATE, buffer_packets=300)]

#: name -> (flows, towers, duration, run_fluid keyword arguments)
SCENARIOS = {
    "pr-windows": (
        _windows(_pr), TWO_TOWERS, 4.0,
        dict(measure_start=1.0, measure_end=3.5),
    ),
    "mixed-windows": (
        _mixed_windows(), TWO_TOWERS, 4.0,
        dict(measure_start=1.0, measure_end=3.5),
    ),
    "pr-handovers": (
        [_pr(f"p{i}", tower=0, start=0.1 * i) for i in range(4)],
        TWO_TOWERS + [TowerSpec(rate=RATE)], 5.0,
        dict(measure_start=1.0, handovers=[
            HandoverSpec(0.02, 3, 1),       # inside the lag clamp
            HandoverSpec(2.0, 0, 2),        # onto an idle tower
            HandoverSpec(2.5, 1, 0),        # same tower: no-op
            HandoverSpec(3.0, 0, 0),        # and back
        ]),
    ),
    "mixed-handovers": (
        [(_cubic if i % 2 else _pr)(f"m{i}", tower=i % 2, start=0.05 * i)
         for i in range(6)],
        TWO_TOWERS + [TowerSpec(rate=RATE)], 5.0,
        dict(measure_start=1.0, handovers=[
            HandoverSpec(2.0, 1, 2),
            HandoverSpec(2.5, 2, 0),
            HandoverSpec(3.25, 4, 1),
        ]),
    ),
    "shallow-vs-cubic": (
        [_pr("p0", target_tbuff=0.150), _cubic("c0", start=0.2),
         _cubic("c1", start=1.0, rtt=0.080)],
        [TowerSpec(rate=RATE, buffer_packets=60)], 10.0,
        dict(dt=0.002, measure_start=2.0),
    ),
    "policy-bank": (
        [FluidFlowSpec(name=f"po{i}", controller="policy",
                       policy=_sine_policy, start=0.25 * i)
         for i in range(3)] + [_pr("p0", start=0.1)],
        [TowerSpec(rate=RATE, buffer_packets=50)], 5.0,
        dict(measure_start=1.0),
    ),
    "trace-outages": (
        [_pr("p0"), _pr("p1", target_tbuff=0.080, start=0.4)],
        [TowerSpec(trace=_outage_trace(), buffer_packets=200)], 6.0,
        dict(measure_start=1.0),
    ),
    "trace-outages-cubic": (
        [_pr("p0"), _cubic("c0", start=0.4)],
        [TowerSpec(trace=_outage_trace(), buffer_packets=200)], 6.0,
        dict(measure_start=1.0),
    ),
    "dt-not-dividing": (
        [_pr("p0"), _pr("p1", start=0.33, rtt=0.055)],
        [TowerSpec(rate=RATE)], 3.1,
        dict(dt=0.007, measure_start=0.5, measure_end=3.0),
    ),
    "dt-not-dividing-cubic": (
        [_pr("p0"), _cubic("c0", start=0.33, rtt=0.055)],
        [TowerSpec(rate=RATE, buffer_packets=80)], 3.1,
        dict(dt=0.007, measure_start=0.5, measure_end=3.0),
    ),
    "shorter-than-an-rtt": (
        [_pr("p0", rtt=0.100), _pr("p1", rtt=0.030, start=0.01)],
        [TowerSpec(rate=RATE)], 0.05,
        dict(measure_start=0.0),
    ),
    "fan-in": _fan_in(),
    "bench-fan-in": _bench_fan_in(),
}


def _has_cubic(flows):
    return any(f.controller == "cubic" for f in flows)


def _assert_close(new, ref, dt):
    """Integer and string fields equal; floats within ``CUBE_RTOL``, the
    buffer-delay maxima alternatively within one ``dt`` quantum."""
    assert new.handovers_applied == ref.handovers_applied
    assert new.steps == ref.steps
    assert new.jfi == pytest.approx(ref.jfi, rel=CUBE_RTOL)
    for a, b in zip(new.flows, ref.flows):
        assert (a.name, a.controller, a.loss_epochs, a.handovers,
                a.final_tower, a.measure_start, a.measure_end) == (
            b.name, b.controller, b.loss_epochs, b.handovers,
            b.final_tower, b.measure_start, b.measure_end)
        for field in ("goodput", "delivered_bytes", "utilization",
                      "avg_tbuff"):
            assert getattr(a, field) == pytest.approx(
                getattr(b, field), rel=CUBE_RTOL, nan_ok=True
            ), (a.name, field)
        assert a.max_tbuff == pytest.approx(
            b.max_tbuff, rel=CUBE_RTOL, abs=dt, nan_ok=True)
    for a, b in zip(new.towers, ref.towers):
        assert (a.name, a.flows_final, a.loss_epochs) == (
            b.name, b.flows_final, b.loss_epochs)
        for field in ("mean_capacity", "utilization", "dropped_bytes"):
            assert getattr(a, field) == pytest.approx(
                getattr(b, field), rel=CUBE_RTOL), (a.name, field)
        assert a.peak_tbuff == pytest.approx(b.peak_tbuff, rel=CUBE_RTOL,
                                             abs=dt)


def _same(report_a, report_b):
    """Exact equality of everything a report renders (NaN == NaN)."""
    return report_a.to_dict() == report_b.to_dict() and (
        repr(report_a.summary()) == repr(report_b.summary()))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_loop_matches_reference(name):
    flows, towers, duration, kw = SCENARIOS[name]
    new = run_fluid(flows, towers, duration, **kw)
    # The loop rewrite on its own is exact, CUBIC or not.
    assert _same(new, reference_integrate(
        flows, towers, duration, cube_by_pow=False, **kw))
    # The cube is the one numeric change.
    ref = reference_integrate(flows, towers, duration, **kw)
    if _has_cubic(flows):
        _assert_close(new, ref, kw.get("dt", 0.005))
    else:
        assert _same(new, ref)


def test_matrix_covers_both_sides_of_the_contract():
    kinds = {name: _has_cubic(flows)
             for name, (flows, *_rest) in SCENARIOS.items()}
    assert sum(kinds.values()) >= 4
    assert sum(not cubic for cubic in kinds.values()) >= 6


@given(
    starts=st.lists(st.floats(min_value=0.0, max_value=2.5), min_size=1,
                    max_size=5),
    on_grid=st.lists(st.integers(min_value=0, max_value=250), max_size=3),
    measure_start=st.floats(min_value=0.0, max_value=1.5),
    window=st.floats(min_value=0.05, max_value=1.0),
    rtt_ms=st.integers(min_value=5, max_value=120),
    handover_at=st.floats(min_value=0.0, max_value=2.5),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_random_starts_and_windows_exact(starts, on_grid, measure_start,
                                         window, rtt_ms, handover_at):
    dt = 0.01
    starts = starts + [k * dt for k in on_grid]
    flows = [_pr(f"p{i}", start=s, tower=i % 2, rtt=rtt_ms / 1000.0,
                 target_tbuff=(0.040, 0.080)[i % 2])
             for i, s in enumerate(starts)]
    towers = [TowerSpec(rate=RATE, buffer_packets=60), TowerSpec(rate=RATE)]
    kw = dict(dt=dt, measure_start=measure_start,
              measure_end=min(measure_start + window, 2.5),
              handovers=[HandoverSpec(handover_at, 0, 1)])
    assert _same(run_fluid(flows, towers, 2.5, **kw),
                 reference_integrate(flows, towers, 2.5, **kw))
