"""Fluid-model validation of the analytical waveform (Figures 1-3).

These tests close the loop between §3's closed forms and an independent
numerical integration of the two-state system: the same (T, k_f, k_d)
must produce the predicted sawtooth.
"""

import pytest

from repro.core.model import (
    derive_parameters,
    simulate_sawtooth,
    waveform_phases,
)

RTT = 0.040
RHO = 1_000_000.0


class TestBufferFullRegime:
    """Figure 1: with Eq. 7 parameters the buffer never empties."""

    @pytest.fixture(scope="class")
    def result(self):
        params = derive_parameters(0.080, RTT)
        return simulate_sawtooth(
            RHO, RTT, params.threshold, params.kf, params.kd,
            duration=30.0, initial_tbuff=0.04,
        )

    def test_buffer_never_empties(self, result):
        assert result.empty_fraction < 0.01
        assert result.utilization > 0.99

    def test_dmax_matches_prediction(self, result):
        # Eq. 7 design: Dmax = 1.5 T = 120 ms
        assert result.dmax == pytest.approx(0.120, rel=0.05)

    def test_dmin_matches_prediction(self, result):
        # Dmin = T/2 = 40 ms
        assert result.dmin == pytest.approx(0.040, rel=0.10)

    def test_average_tbuff_matches_target(self, result):
        assert result.avg_tbuff == pytest.approx(0.080, rel=0.05)

    def test_period_is_4_t_plus_rtt(self, result):
        """Symmetric waveform (Fig. 3(c)): t_f = t_d = 2(T + RTT)."""
        assert result.period == pytest.approx(4 * (0.080 + RTT), rel=0.10)


class TestBufferEmptiedRegime:
    """Figure 2: Eq. 8 parameters periodically empty the buffer."""

    @pytest.fixture(scope="class")
    def result(self):
        params = derive_parameters(0.020, RTT)
        return simulate_sawtooth(
            RHO, RTT, params.threshold, params.kf, params.kd,
            duration=30.0,
        )

    def test_buffer_periodically_empty(self, result):
        assert result.empty_fraction > 0.02

    def test_utilisation_near_design_value(self, result):
        params = derive_parameters(0.020, RTT)
        assert result.utilization == pytest.approx(params.utilization, abs=0.15)

    def test_average_tbuff_near_target(self, result):
        assert result.avg_tbuff == pytest.approx(0.020, rel=0.35)

    def test_trough_is_zero(self, result):
        assert result.dmin == pytest.approx(0.0, abs=1e-3)


class TestThresholdPlacement:
    """Figure 3(a)-(c): for a fixed peak/trough, the period is minimal
    when T sits in the middle of the waveform.

    Holding D_max and D_min fixed while moving T requires adjusting the
    slopes: the observation lag is T + RTT, so the rise must be
    (D_max − T)/(T + RTT) and the fall (T − D_min)/(T + RTT).
    """

    DMAX, DMIN = 0.120, 0.040

    def _period(self, threshold):
        lag = threshold + RTT
        kf = 1.0 + (self.DMAX - threshold) / lag
        kd = 1.0 - (threshold - self.DMIN) / lag
        return simulate_sawtooth(
            RHO, RTT, threshold, kf=kf, kd=kd,
            duration=40.0, initial_tbuff=(self.DMAX + self.DMIN) / 2,
        ).period

    def test_symmetric_threshold_minimises_period(self):
        near_trough = self._period(0.050)   # Fig. 3(a)
        middle = self._period(0.080)        # Fig. 3(c)
        near_peak = self._period(0.110)     # Fig. 3(b)
        assert middle < near_trough
        assert middle < near_peak

    def test_extreme_threshold_stretches_one_state(self):
        """Near the trough the drain slope is shallow, so the algorithm
        lingers in the Drain state for most of the cycle (Fig. 3(a))."""
        result = simulate_sawtooth(
            RHO, RTT, 0.050,
            kf=1.0 + (self.DMAX - 0.050) / (0.050 + RTT),
            kd=1.0 - (0.050 - self.DMIN) / (0.050 + RTT),
            duration=40.0, initial_tbuff=0.08,
        )
        drain_time = float((result.states[len(result.states) // 2:] == -1).mean())
        assert drain_time > 0.5


class TestFluidMechanics:
    def test_rejects_bad_gains(self):
        with pytest.raises(ValueError):
            simulate_sawtooth(RHO, RTT, 0.02, kf=1.0, kd=0.5)
        with pytest.raises(ValueError):
            simulate_sawtooth(RHO, RTT, 0.02, kf=1.5, kd=1.0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            simulate_sawtooth(0.0, RTT, 0.02, 1.5, 0.5)
        with pytest.raises(ValueError):
            simulate_sawtooth(RHO, RTT, -0.01, 1.5, 0.5)

    def test_waveform_arrays_consistent(self):
        r = simulate_sawtooth(RHO, RTT, 0.02, 1.4, 0.5, duration=5.0)
        assert len(r.times) == len(r.tbuff) == len(r.states)
        assert (r.tbuff >= 0).all()
        assert set(r.states.tolist()) <= {-1, 1}

    def test_phases_cover_run(self):
        r = simulate_sawtooth(RHO, RTT, 0.02, 1.4, 0.5, duration=5.0)
        phases = waveform_phases(r)
        total = sum(d for _, d in phases)
        assert total == pytest.approx(5.0, rel=0.01)
        labels = {name for name, _ in phases}
        assert "fill" in labels

    def test_oscillation_exists(self):
        r = simulate_sawtooth(RHO, RTT, 0.04, 1.3, 0.7, duration=20.0)
        assert r.dmax > r.dmin
        assert r.period > 0


class TestEdgeCases:
    """Degenerate parameter placements the closed forms don't cover."""

    def test_kf_barely_above_one_never_fills(self):
        # kf → 1⁺: the fill rate (kf − 1)·ρ is negligible, so the
        # buffer never reaches the threshold — the waveform stays in
        # the fill state with an (almost) empty buffer throughout.
        r = simulate_sawtooth(RHO, RTT, 0.02, kf=1.000001, kd=0.5,
                              duration=10.0)
        assert set(r.states.tolist()) == {1}
        assert r.dmax < 0.001
        # An almost-empty buffer counts as empty (no standing queue).
        assert r.empty_fraction > 0.9

    def test_threshold_zero_drains_and_stays_empty(self):
        # T = 0: the first observed queueing flips the controller to
        # drain, and since the observed delay can never go *below*
        # zero it never fills again — the T→0 limit of the latency/
        # utilization trade-off.
        r = simulate_sawtooth(RHO, RTT, 0.0, kf=1.5, kd=0.5,
                              duration=10.0)
        assert r.states[-1] == -1
        assert r.tbuff[-1] == 0.0
        # Steady state is an empty buffer: utilization collapses.
        assert r.empty_fraction > 0.9

    def test_initial_tbuff_above_threshold_converges(self):
        # Starting with a standing queue well above T must converge to
        # the same steady-state sawtooth as starting empty.
        params = derive_parameters(0.080, RTT)
        from_empty = simulate_sawtooth(
            RHO, RTT, params.threshold, params.kf, params.kd,
            duration=30.0,
        )
        from_above = simulate_sawtooth(
            RHO, RTT, params.threshold, params.kf, params.kd,
            duration=30.0, initial_tbuff=0.300,
        )
        assert from_above.dmax == pytest.approx(from_empty.dmax, rel=0.05)
        assert from_above.avg_tbuff == pytest.approx(
            from_empty.avg_tbuff, rel=0.05
        )
        assert from_above.period == pytest.approx(
            from_empty.period, rel=0.10
        )
