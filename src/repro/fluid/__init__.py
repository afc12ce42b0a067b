"""Flow-level fluid simulation tier (see docs/fluid.md).

The packet engine replays every delivery opportunity; this tier
integrates per-flow rate / buffer-delay trajectories on a fixed time
grid, scaling to thousands of flows fanned into cell towers.  Cross-
validated against the packet engine by scripts/check_fluid_xval.py.
"""

from repro.fluid.controllers import (
    ControllerBank,
    CubicBank,
    PolicyBank,
    PropRateBank,
)
from repro.fluid.engine import (
    FluidFlowResult,
    FluidFlowSpec,
    FluidReport,
    HandoverSpec,
    TowerSpec,
    TowerSummary,
    run_fluid,
)
from repro.fluid.scenarios import fan_in_scenario, tower_for_label

__all__ = [
    "ControllerBank",
    "CubicBank",
    "PolicyBank",
    "PropRateBank",
    "FluidFlowResult",
    "FluidFlowSpec",
    "FluidReport",
    "HandoverSpec",
    "TowerSpec",
    "TowerSummary",
    "run_fluid",
    "fan_in_scenario",
    "tower_for_label",
]
