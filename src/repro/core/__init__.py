"""PropRate: the paper's primary contribution.

* :mod:`repro.core.model` — the analytical model of §3 (Eqs. 1–8):
  regimes, utilisation, waveform geometry and the k_f/k_d derivations,
  plus the ideal buffer-delay sawtooth (Figures 1–3) that validates it.
* :mod:`repro.core.estimators` — sender-side receive-rate and
  buffer-delay estimation from TCP timestamps (§4.1–4.2, Figure 6).
* :mod:`repro.core.feedback` — the negative-feedback loop that converges
  the achieved buffer delay to the target (§3.2, Figure 4).
* :mod:`repro.core.proprate` — the congestion-control module itself
  (state machine of Figure 5(b)).
"""

from repro.core.adaptive import AdaptivePropRate
from repro.core.estimators import (
    BufferDelayEstimator,
    MaxFilterRateEstimator,
    ReceiveRateEstimator,
)
from repro.core.feedback import ThresholdFeedbackLoop
from repro.core.model import (
    FluidResult,
    PropRateParams,
    Regime,
    average_buffer_delay,
    crossover_buffer_delay,
    derive_parameters,
    emptied_regime_utilization,
    simulate_sawtooth,
    utilization,
)
from repro.core.proprate import PropRate

__all__ = [
    "AdaptivePropRate",
    "BufferDelayEstimator",
    "MaxFilterRateEstimator",
    "FluidResult",
    "PropRate",
    "PropRateParams",
    "ReceiveRateEstimator",
    "Regime",
    "ThresholdFeedbackLoop",
    "average_buffer_delay",
    "crossover_buffer_delay",
    "derive_parameters",
    "emptied_regime_utilization",
    "simulate_sawtooth",
    "utilization",
]
