"""Figures 1-3: the buffer-delay sawtooth in both regimes.

Regenerates the idealised waveforms with the fluid model and checks them
against the closed forms of §3: buffer-full oscillation between
D_min = T/2 and D_max = 3T/2 (Figure 1 / 3(e)), the periodically-emptied
waveform (Figure 2 / 3(f)), and the period-vs-threshold-placement sweep
(Figures 3(a)-(c))."""

import pytest

from repro.core.model import Regime, derive_parameters, simulate_sawtooth

from _report import emit

RTT = 0.040
RHO = 1_500_000.0


def test_fig1_3_waveforms():
    # Figure 1: buffer-full case (PR(H)-style target).
    params_f = derive_parameters(0.080, RTT)
    full = simulate_sawtooth(
        RHO, RTT, params_f.threshold, params_f.kf, params_f.kd,
        duration=30.0, initial_tbuff=0.04,
    )
    # Figure 2: buffer-emptied case (PR(L)-style target).
    params_e = derive_parameters(0.020, RTT)
    emptied = simulate_sawtooth(
        RHO, RTT, params_e.threshold, params_e.kf, params_e.kd,
        duration=30.0,
    )
    rows = [("fig1 buffer-full", params_f, full),
            ("fig2 buffer-emptied", params_e, emptied)]
    lines = [
        f"{'case':22s} {'regime':16s} {'Dmax ms':>8s} {'pred':>6s} "
        f"{'Dmin ms':>8s} {'pred':>6s} {'avg ms':>7s} {'tgt':>5s} {'U':>6s} {'pred':>6s}"
    ]
    for label, params, result in rows:
        lines.append(
            f"{label:22s} {params.regime.value:16s} "
            f"{result.dmax * 1000:8.1f} {params.predicted_dmax * 1000:6.1f} "
            f"{result.dmin * 1000:8.1f} {params.predicted_dmin * 1000:6.1f} "
            f"{result.avg_tbuff * 1000:7.1f} {params.target_tbuff * 1000:5.1f} "
            f"{result.utilization:6.3f} {params.utilization:6.3f}"
        )
    emit("fig1_3_waveforms", lines)

    assert params_f.regime is Regime.BUFFER_FULL
    assert full.utilization > 0.99
    assert full.dmax == pytest.approx(params_f.predicted_dmax, rel=0.05)
    assert full.avg_tbuff == pytest.approx(params_f.target_tbuff, rel=0.05)

    assert params_e.regime is Regime.BUFFER_EMPTIED
    assert emptied.empty_fraction > 0.02
    assert emptied.dmin == pytest.approx(0.0, abs=1e-3)
    assert emptied.avg_tbuff == pytest.approx(params_e.target_tbuff, rel=0.35)
