"""Scenario builders for the fluid tier.

:func:`tower_for_label` materializes the grid's shared trace-label
vocabulary (``wired:<N>mbps`` / ``cellular:<ISP>-<mode>``) into a
:class:`~repro.fluid.engine.TowerSpec`, so fluid scenarios and packet
scenarios name links the same way.  :func:`fan_in_scenario` builds the
deterministic thousand-flow cell-tower fan-in used by the CLI and the
scaling benchmark: flows hash round-robin onto towers, controllers
alternate by mix, start times stagger, and a fixed-stride handover
plan migrates a slice of flows between towers mid-run.  Nothing here
consults a clock or a global RNG — the same arguments always produce
the same scenario, which the determinism tests rely on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.fluid.engine import FluidFlowSpec, HandoverSpec, TowerSpec
from repro.traces.presets import label_rate, trace_for_label

__all__ = ["tower_for_label", "fan_in_scenario", "FAN_IN_MIXES"]

#: Controller rotations by mix name (the grid's MIXES vocabulary where
#: both sides exist in fluid form).
FAN_IN_MIXES = {
    "pr-self": ("proprate",),
    "cubic-self": ("cubic",),
    "pr-vs-cubic": ("proprate", "cubic"),
    "pr-heavy": ("proprate", "proprate", "proprate", "cubic"),
    "pr-adaptive": ("adaptive-proprate", "cubic"),
}

#: Target buffer delays cycled across PropRate flows (PR(L)/PR(M)/PR(H)
#: regimes from Table 3).
PR_TARGET_CYCLE = (0.040, 0.080, 0.150)


def tower_for_label(label: str, duration: float,
                    buffer_packets: Optional[int] = None) -> TowerSpec:
    """A tower from a grid trace label.

    ``wired:<N>mbps`` becomes a constant-rate tower; any other label is
    materialized by :func:`~repro.traces.presets.trace_for_label` (a
    ``cellular:<ISP>-<mode>`` preset, looped over ``duration`` exactly
    as the packet links loop it).
    """
    extra = {} if buffer_packets is None else {
        "buffer_packets": buffer_packets
    }
    rate = label_rate(label)
    if rate is not None:
        return TowerSpec(name=label, rate=rate, **extra)
    return TowerSpec(
        name=label, trace=trace_for_label(label, duration), **extra
    )


def fan_in_scenario(
    n_flows: int,
    n_towers: int,
    duration: float,
    mix: str = "pr-vs-cubic",
    handover_count: int = 0,
    tower_labels: Sequence[str] = (),
    tower_rate: float = 12.5e6,
    stagger: float = 0.010,
    seed: int = 0,
) -> Tuple[List[FluidFlowSpec], List[TowerSpec], List[HandoverSpec]]:
    """Deterministic cell-tower fan-in scenario.

    ``tower_labels`` (grid vocabulary) overrides the default constant
    ``tower_rate`` towers, cycling when shorter than ``n_towers``.
    ``handover_count`` handovers are spread evenly over the middle 80%
    of the run, each moving a stride-selected flow to the next tower.
    ``seed`` rotates the deterministic flow→tower and handover strides
    so distinct seeds give distinct (but reproducible) scenarios.
    """
    if n_flows < 1 or n_towers < 1:
        raise ValueError("need at least one flow and one tower")
    rotation = FAN_IN_MIXES.get(mix)
    if rotation is None:
        raise ValueError(
            f"unknown mix {mix!r}; have {sorted(FAN_IN_MIXES)}"
        )

    towers: List[TowerSpec] = []
    for j in range(n_towers):
        if tower_labels:
            label = tower_labels[j % len(tower_labels)]
            towers.append(tower_for_label(label, duration))
        else:
            towers.append(
                TowerSpec(name=f"tower{j}", rate=tower_rate)
            )

    flows: List[FluidFlowSpec] = []
    for i in range(n_flows):
        controller = rotation[i % len(rotation)]
        target = PR_TARGET_CYCLE[(i + seed) % len(PR_TARGET_CYCLE)]
        flows.append(
            FluidFlowSpec(
                name=f"{controller}-{i:04d}",
                controller=controller,
                target_tbuff=target,
                tower=(i + seed) % n_towers,
                start=(i % 64) * stagger,
            )
        )

    handovers: List[HandoverSpec] = []
    if handover_count > 0:
        span = 0.8 * duration
        t0 = 0.1 * duration
        # A stride coprime-ish with n_flows walks the flow list without
        # clustering; +1 keeps it nonzero for tiny flow counts.
        stride = (n_flows // max(handover_count, 1)) * 7 + 1
        for h in range(handover_count):
            flow = (seed + h * stride) % n_flows
            dst = (flows[flow].tower + 1 + (h % max(n_towers - 1, 1))) \
                % n_towers
            handovers.append(
                HandoverSpec(
                    time=t0 + span * (h + 1) / (handover_count + 1),
                    flow=flow,
                    to_tower=dst,
                )
            )
    return flows, towers, handovers
