"""Cross-validation of the fluid tier against the packet engine.

The fluid tier earns its 100× speedup by abstracting packets away; the
price is model error.  This module pins that error down: a set of
*overlapping scenarios* — single-flow and 2–4-flow contention mixes the
packet engine can comfortably run — goes through both tiers, and the
reduced metrics (total throughput, mean queueing delay, Jain's index)
must agree within tolerance bands checked into
``benchmarks/baselines/fluid_xval.json``.  ``scripts/check_fluid_xval.py``
drives this in CI; docs/fluid.md explains why each band is as wide as
it is.

Metric mapping between tiers:

* **throughput** — packet: sum of ``FlowResult.throughput``; fluid:
  sum of ``FluidFlowResult.goodput``.  Compared relatively.
* **queueing delay** — packet: per-flow one-way mean delay minus the
  propagation delay (the grid's standing-queue metric), averaged over
  flows; fluid: per-flow time-mean exit buffer delay, averaged.
  Compared with max(absolute, relative) bands, because small absolute
  delays make relative error meaningless.
* **jfi** — Jain's index over per-flow throughput, compared absolutely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.fluid.engine import FluidFlowSpec, run_fluid
from repro.fluid.scenarios import tower_for_label
from repro.metrics.stats import jain_fairness
from repro.traces.presets import trace_for_label

__all__ = [
    "XvalScenario",
    "Bands",
    "SCENARIOS",
    "REDUCED_NAMES",
    "load_bands",
    "run_scenario",
    "run_xval",
]

#: Propagation RTT both tiers share (2 × 20 ms, the paper's topology).
XVAL_RTT = 0.040

#: Fluid integration step for xval runs: fine enough that integration
#: error is well below the model error the bands absorb.
XVAL_DT = 0.002


@dataclass(frozen=True)
class XvalScenario:
    """One overlapping scenario run through both tiers.

    ``entries`` is a cyclic tuple of ``(controller, target_tbuff)``
    expanded over ``n_flows``, matching the grid's mix vocabulary
    (``target_tbuff`` is ignored for loss-based controllers).
    """

    name: str
    trace_label: str
    n_flows: int = 1
    entries: Tuple[Tuple[str, float], ...] = (("proprate", 0.040),)
    duration: float = 20.0
    buffer_packets: int = 2000
    measure_start: float = 5.0

    def flow_plan(self) -> List[Tuple[str, str, float]]:
        """Expanded ``(name, controller, target)`` per flow."""
        plan = []
        for i in range(self.n_flows):
            controller, target = self.entries[i % len(self.entries)]
            plan.append((f"{controller}-{i}", controller, target))
        return plan


@dataclass(frozen=True)
class Bands:
    """Agreement tolerances for one scenario (see docs/fluid.md)."""

    throughput_rel: float = 0.15
    tbuff_abs: float = 0.030
    tbuff_rel: float = 0.35
    jfi_abs: float = 0.15


#: The checked-in scenario set.  Wired labels give the tightest bands
#: (stationary capacity isolates controller-model error); the cellular
#: scenario bounds error under Table-2 variability with wider bands.
SCENARIOS: Tuple[XvalScenario, ...] = (
    XvalScenario(
        name="pr40-single-wired8",
        trace_label="wired:8mbps",
    ),
    XvalScenario(
        name="pr80-single-wired8",
        trace_label="wired:8mbps",
        entries=(("proprate", 0.080),),
    ),
    XvalScenario(
        name="cubic-single-wired8",
        trace_label="wired:8mbps",
        entries=(("cubic", 0.0),),
        buffer_packets=300,
    ),
    XvalScenario(
        name="pr-self-2-wired12",
        trace_label="wired:12mbps",
        n_flows=2,
    ),
    XvalScenario(
        name="pr-vs-cubic-wired12",
        trace_label="wired:12mbps",
        n_flows=2,
        entries=(("proprate", 0.040), ("cubic", 0.0)),
        buffer_packets=300,
    ),
    XvalScenario(
        name="cubic-self-4-wired16",
        trace_label="wired:16mbps",
        n_flows=4,
        entries=(("cubic", 0.0),),
        buffer_packets=300,
    ),
    XvalScenario(
        name="pr40-single-cellular",
        trace_label="cellular:A-stationary",
    ),
)

#: CI subset (the fluid-xval job): one scenario per structural family,
#: keeping the job inside its timeout while covering single-flow PR,
#: single-flow CUBIC, and both contention shapes.
REDUCED_NAMES = (
    "pr40-single-wired8",
    "cubic-single-wired8",
    "pr-self-2-wired12",
    "pr-vs-cubic-wired12",
)


def load_bands(path: str) -> Dict[str, Bands]:
    """Read the tolerance-band JSON: ``default`` plus per-scenario
    overrides, returned as a name → :class:`Bands` map (``"default"``
    included)."""
    import json

    with open(path) as fh:
        data = json.load(fh)
    if data.get("format") != "repro.fluid-xval/1":
        raise ValueError(f"unexpected bands format in {path!r}")
    default = Bands(**data.get("default", {}))
    bands = {"default": default}
    for name, override in data.get("scenarios", {}).items():
        merged = dict(
            throughput_rel=default.throughput_rel,
            tbuff_abs=default.tbuff_abs,
            tbuff_rel=default.tbuff_rel,
            jfi_abs=default.jfi_abs,
        )
        merged.update(override)
        bands[name] = Bands(**merged)
    return bands


def _packet_side(scn: XvalScenario) -> Dict[str, Any]:
    from repro.experiments.parallel import CcSpec, proprate_spec
    from repro.experiments.runner import (
        DEFAULT_PROP_DELAY,
        FlowSpec,
        cellular_path_config,
        run_experiment,
    )

    path = cellular_path_config(
        trace_for_label(scn.trace_label, scn.duration),
        buffer_packets=scn.buffer_packets,
    )
    flows = []
    for name, controller, target in scn.flow_plan():
        if controller == "proprate":
            spec = proprate_spec(target)
        else:
            spec = CcSpec(controller.upper())
        flows.append(FlowSpec(cc_factory=spec.build, name=name))
    results = run_experiment(
        path, flows, scn.duration, measure_start=scn.measure_start
    )
    throughputs = [r.throughput for r in results]
    delays = []
    for r in results:
        q = r.delay.mean - DEFAULT_PROP_DELAY
        if not math.isnan(q):
            delays.append(max(0.0, q))
    return {
        "throughput": float(sum(throughputs)),
        "tbuff": float(sum(delays) / len(delays)) if delays else 0.0,
        "jfi": jain_fairness(throughputs),
    }


def _fluid_side(scn: XvalScenario) -> Dict[str, Any]:
    tower = tower_for_label(
        scn.trace_label, scn.duration, buffer_packets=scn.buffer_packets
    )
    flows = [
        FluidFlowSpec(
            name=name, controller=controller,
            target_tbuff=target if controller == "proprate" else 0.040,
            rtt=XVAL_RTT,
        )
        for name, controller, target in scn.flow_plan()
    ]
    report = run_fluid(
        flows, [tower], scn.duration, dt=XVAL_DT,
        measure_start=scn.measure_start,
    )
    goodputs = [f.goodput for f in report.flows]
    delays = [f.avg_tbuff for f in report.flows
              if not math.isnan(f.avg_tbuff)]
    return {
        "throughput": float(sum(goodputs)),
        "tbuff": float(sum(delays) / len(delays)) if delays else 0.0,
        "jfi": report.jfi,
    }


@dataclass
class XvalRow:
    """One scenario's comparison (the artifact table row)."""

    scenario: str
    packet: Dict[str, float]
    fluid: Dict[str, float]
    errors: Dict[str, float] = field(default_factory=dict)
    passed: bool = True
    failures: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "packet": self.packet,
            "fluid": self.fluid,
            "errors": self.errors,
            "passed": self.passed,
            "failures": self.failures,
        }


def run_scenario(scn: XvalScenario, bands: Bands) -> XvalRow:
    """Run ``scn`` through both tiers and compare against ``bands``."""
    packet = _packet_side(scn)
    fluid = _fluid_side(scn)
    failures: List[str] = []

    tp_ref = max(packet["throughput"], 1e-9)
    tp_err = abs(fluid["throughput"] - packet["throughput"]) / tp_ref
    if tp_err > bands.throughput_rel:
        failures.append(
            f"throughput: rel err {tp_err:.3f} > {bands.throughput_rel}"
        )

    tb_abs = abs(fluid["tbuff"] - packet["tbuff"])
    tb_rel = tb_abs / max(packet["tbuff"], 1e-9)
    if tb_abs > bands.tbuff_abs and tb_rel > bands.tbuff_rel:
        failures.append(
            f"tbuff: abs err {tb_abs:.4f}s > {bands.tbuff_abs}s and "
            f"rel err {tb_rel:.3f} > {bands.tbuff_rel}"
        )

    jfi_err = abs(fluid["jfi"] - packet["jfi"])
    if jfi_err > bands.jfi_abs:
        failures.append(
            f"jfi: abs err {jfi_err:.3f} > {bands.jfi_abs}"
        )

    return XvalRow(
        scenario=scn.name,
        packet=packet,
        fluid=fluid,
        errors={
            "throughput_rel": tp_err,
            "tbuff_abs": tb_abs,
            "tbuff_rel": tb_rel,
            "jfi_abs": jfi_err,
        },
        passed=not failures,
        failures=failures,
    )


def run_xval(
    bands_path: str,
    names: Optional[Sequence[str]] = None,
    on_row: Optional[Callable[[XvalRow], None]] = None,
) -> List[XvalRow]:
    """Run the scenario set (all, or the named subset) against the
    bands file; ``on_row`` is called with each finished
    :class:`XvalRow` for progress reporting."""
    bands = load_bands(bands_path)
    selected = [
        s for s in SCENARIOS if names is None or s.name in names
    ]
    if names is not None:
        known = {s.name for s in SCENARIOS}
        missing = [n for n in names if n not in known]
        if missing:
            raise ValueError(f"unknown xval scenarios: {missing}")
    rows = []
    for scn in selected:
        row = run_scenario(scn, bands.get(scn.name, bands["default"]))
        rows.append(row)
        if on_row is not None:
            on_row(row)
    return rows
