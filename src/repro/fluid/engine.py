"""Flow-level fluid simulation tier with cell-tower fan-in.

The packet engine (:mod:`repro.sim`) replays every delivery opportunity
as a discrete event — faithful, but topping out at hundreds of
concurrent flows.  This tier evolves per-flow *rate and buffer-delay
trajectories* on a fixed time grid instead, the multi-flow
generalization of the §3 fluid sawtooth already validated single-flow
in :mod:`repro.core.model`:

* each **tower** is one bottleneck: a time-varying capacity profile
  (trace-driven or constant), a drop-tail buffer, and an aggregate
  fluid queue whose delay is shared by every attached flow (the FIFO
  property);
* each **flow** runs a fluid controller model
  (:mod:`repro.fluid.controllers`) that sees the tower's buffer delay
  only after its feedback lag — observed(t) ≈ t_buff at the send time
  of the newest acknowledged fluid, the same delayed-observation
  mechanism that produces the paper's sawtooth;
* capacity is split **proportionally to arrival rates** (fluid FIFO):
  a flow sending x_i of the tower's aggregate A receives C·x_i/A of
  the service rate while a queue stands;
* **handovers** migrate flows between towers mid-run; the fluid they
  already queued drains at the old tower (aggregate queues don't track
  per-flow bytes — documented in docs/fluid.md).

The step itself is one small C kernel (``step.c``, built on first use
by :mod:`repro.fluid.kernel`) that reproduces the numpy loop it
replaced byte for byte; this module keeps the scenario set-up,
handovers, masks, telemetry and the reduction.  Thousands of flows run
in well under a second of wall time (see ``repro reproduce FL1``),
which is what the ROADMAP's
"millions of users" tier needs.  Correctness is
anchored by scripts/check_fluid_xval.py: overlapping scenarios run
through both tiers must agree within checked-in tolerance bands.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

import repro.obs as obs
from repro.fluid import kernel
from repro.fluid.controllers import MSS, build_banks
from repro.metrics.stats import finite_or_none, jain_fairness
from repro.sim.queues import DEFAULT_BUFFER_PACKETS
from repro.traces.trace import Trace

__all__ = [
    "TowerSpec",
    "FluidFlowSpec",
    "HandoverSpec",
    "FluidFlowResult",
    "TowerSummary",
    "FluidReport",
    "run_fluid",
]

#: Default integration step (seconds).  Cycle times of the modelled
#: controllers are O(100 ms); 5 ms resolves them while keeping a
#: 30-second, thousand-flow run in the low seconds of wall time.
DEFAULT_DT = 0.005

#: Window for sampling a trace into the capacity profile (the paper's
#: Table-2 statistics window).
DEFAULT_CAPACITY_WINDOW = 0.1

#: Time constant of the reference-capacity EWMA used to convert queue
#: bytes into delay (bridges zero-capacity outage windows).
CAPACITY_REF_TAU = 0.25

#: Floor on the reference capacity (bytes/s) so outage-opening traces
#: cannot divide by zero; 15 kB/s ≈ one opportunity per 100 ms window.
CAPACITY_REF_FLOOR = 15e3

#: Simulated seconds between fluid.tower telemetry samples.
TOWER_SAMPLE_INTERVAL = 0.1


@dataclass(frozen=True)
class TowerSpec:
    """One cell tower: a bottleneck capacity profile plus a buffer.

    Exactly one of ``rate`` (constant bytes/s) or ``trace`` (a
    :class:`~repro.traces.trace.Trace`, looped like the packet links
    do) must be given.
    """

    name: str = ""
    rate: Optional[float] = None
    trace: Optional[Trace] = None
    buffer_packets: int = DEFAULT_BUFFER_PACKETS

    def __post_init__(self) -> None:
        if (self.rate is None) == (self.trace is None):
            raise ValueError("give exactly one of rate= or trace=")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.buffer_packets < 1:
            raise ValueError("buffer_packets must be >= 1")

    def capacity_profile(self, duration: float, window: float) -> np.ndarray:
        """Capacity (bytes/s) per ``window``-second bin over ``duration``."""
        n = max(1, int(math.ceil(duration / window)))
        if self.rate is not None:
            return np.full(n, float(self.rate))
        trace = self.trace
        caps = np.empty(n)
        for i in range(n):
            caps[i] = trace.capacity_bytes(i * window, (i + 1) * window)
        return caps / window


@dataclass(frozen=True)
class FluidFlowSpec:
    """One flow in a fluid run.

    ``controller`` is ``"proprate"`` (with ``target_tbuff``),
    ``"cubic"``, or ``"policy"`` (externally driven
    rates; ``policy`` is the per-step callable all flows sharing it are
    banked under — see
    :class:`~repro.fluid.controllers.PolicyBank`); ``rtt`` is the
    propagation round-trip excluding buffer delay (the packet tier's
    2 × 20 ms default); ``tower`` the index of the initially attached
    tower.
    """

    name: str = ""
    controller: str = "proprate"
    target_tbuff: float = 0.040
    rtt: float = 0.040
    tower: int = 0
    start: float = 0.0
    #: Per-step action callable ("policy" only); flows sharing the same
    #: callable are banked together.
    policy: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.rtt <= 0:
            raise ValueError("rtt must be positive")
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.controller == "proprate" and self.target_tbuff <= 0:
            raise ValueError("target_tbuff must be positive")


@dataclass(frozen=True)
class HandoverSpec:
    """Migrate ``flow`` (index into the run's flow list) to ``to_tower``
    at simulated ``time``."""

    time: float
    flow: int
    to_tower: int


@dataclass(frozen=True)
class FluidFlowResult:
    """Reduced outcome of one fluid flow — the
    :class:`~repro.experiments.runner.FlowResult` summary vocabulary
    (goodput, buffer delay, utilization) at flow-level resolution."""

    name: str
    controller: str
    goodput: float                  # bytes/s over the measure window
    delivered_bytes: float
    avg_tbuff: float                # time-mean buffer delay (seconds)
    max_tbuff: float
    #: Goodput over the *total* capacity of the towers the flow visited
    #: (same convention as FlowResult.utilization: flows sharing a
    #: bottleneck each report their fraction of the whole).
    utilization: Optional[float]
    loss_epochs: int
    handovers: int
    final_tower: int
    measure_start: float
    measure_end: float

    def summary(self) -> tuple:
        """Deterministic comparable tuple (the xval/CI contract)."""
        return (
            self.name,
            self.controller,
            self.goodput,
            self.delivered_bytes,
            self.avg_tbuff,
            self.max_tbuff,
            self.utilization,
            self.loss_epochs,
            self.handovers,
            self.final_tower,
            self.measure_start,
            self.measure_end,
        )


@dataclass(frozen=True)
class TowerSummary:
    """Aggregate view of one tower over the measure window."""

    name: str
    flows_final: int                # flows attached when the run ended
    mean_capacity: float            # bytes/s
    utilization: float              # served / capacity, in [0, 1]
    peak_tbuff: float
    dropped_bytes: float
    loss_epochs: int


@dataclass
class FluidReport:
    """The reduced fluid run: per-flow results, per-tower aggregates,
    and the cross-flow fairness index."""

    flows: List[FluidFlowResult]
    towers: List[TowerSummary]
    jfi: float                      # Jain's index over flow goodputs
    duration: float
    dt: float
    steps: int
    handovers_applied: int

    @property
    def total_goodput(self) -> float:
        return sum(f.goodput for f in self.flows)

    def summary(self) -> tuple:
        """Deterministic whole-run tuple (determinism tests compare it)."""
        return (
            tuple(f.summary() for f in self.flows),
            self.jfi,
            self.handovers_applied,
            self.steps,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe deterministic rendering (NaN/inf → null, no
        wall-clock anywhere) — same contract as the grid artifact."""
        return {
            "format": "repro.fluid/1",
            "config": {
                "duration": self.duration,
                "dt": self.dt,
                "steps": self.steps,
                "n_flows": len(self.flows),
                "n_towers": len(self.towers),
            },
            "jfi": finite_or_none(self.jfi),
            "handovers_applied": self.handovers_applied,
            "flows": [
                {
                    "name": f.name,
                    "controller": f.controller,
                    "goodput": finite_or_none(f.goodput),
                    "delivered_bytes": finite_or_none(f.delivered_bytes),
                    "avg_tbuff": finite_or_none(f.avg_tbuff),
                    "max_tbuff": finite_or_none(f.max_tbuff),
                    "utilization": finite_or_none(f.utilization),
                    "loss_epochs": f.loss_epochs,
                    "handovers": f.handovers,
                    "tower": f.final_tower,
                }
                for f in self.flows
            ],
            "towers": [
                {
                    "name": t.name,
                    "flows": t.flows_final,
                    "mean_capacity": finite_or_none(t.mean_capacity),
                    "utilization": finite_or_none(t.utilization),
                    "peak_tbuff": finite_or_none(t.peak_tbuff),
                    "dropped_bytes": finite_or_none(t.dropped_bytes),
                    "loss_epochs": t.loss_epochs,
                }
                for t in self.towers
            ],
        }


def run_fluid(
    flows: Sequence[FluidFlowSpec],
    towers: Sequence[TowerSpec],
    duration: float,
    dt: float = DEFAULT_DT,
    measure_start: float = 5.0,
    measure_end: Optional[float] = None,
    handovers: Sequence[HandoverSpec] = (),
    capacity_window: float = DEFAULT_CAPACITY_WINDOW,
    telemetry: Optional[Any] = None,
    sampling: Optional[str] = None,
    profile: Optional[Any] = None,
) -> FluidReport:
    """Integrate a multi-flow, multi-tower fluid scenario.

    ``measure_start``/``measure_end`` bound the statistics window
    exactly as in :func:`repro.experiments.runner.run_experiment`
    (per-flow start times push a flow's own window later); the window
    must be finite, non-empty and inside the run — ``0 <= measure_start
    < measure_end <= duration`` (``measure_end`` defaults to
    ``duration``) — or :class:`ValueError` is raised.
    ``telemetry`` / ``sampling`` / ``profile`` are the per-run
    observers of :class:`repro.experiments.options.RunOptions`, resolved
    exactly as in the packet runner (there is no fluid auditor, hence
    no ``audit``); ``sampling`` budgets the per-tower sample volume and
    ``profile`` times the integration loop
    (``run.timing.prof.fluid.integrate``).

    The integration runs on a fixed grid — no wall-clock, no RNG — so a
    repeated run of the same scenario is bit-identical.  The first call
    in a process builds the step kernel (:mod:`repro.fluid.kernel`) if
    the cache has none; without a C compiler it raises
    :class:`RuntimeError` naming the command it ran.
    """
    if not flows:
        raise ValueError("need at least one flow")
    if not towers:
        raise ValueError("need at least one tower")
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    for spec in flows:
        if not 0 <= spec.tower < len(towers):
            raise ValueError(f"flow {spec.name!r} references tower "
                             f"{spec.tower} of {len(towers)}")
    for ho in handovers:
        if not 0 <= ho.flow < len(flows):
            raise ValueError(f"handover at {ho.time} references flow "
                             f"{ho.flow} of {len(flows)}")
        if not 0 <= ho.to_tower < len(towers):
            raise ValueError(f"handover at {ho.time} references tower "
                             f"{ho.to_tower} of {len(towers)}")
    if measure_end is None:
        measure_end = duration
    if not (math.isfinite(measure_start) and math.isfinite(measure_end)
            and 0 <= measure_start < measure_end <= duration):
        raise ValueError(
            f"measure window [{measure_start}, {measure_end}) must be "
            f"finite, non-empty and inside the {duration} s run: need "
            "0 <= measure_start < measure_end <= duration (on the command "
            "line, --warmup must be shorter than --duration)"
        )

    with obs.observing(telemetry, sampling, profile) as (tracer, profiler):
        if tracer is not None:
            tracer.emit(
                obs.FLUID_RUN, 0.0, duration=duration, dt=dt,
                flows=len(flows), towers=len(towers),
                handovers=len(handovers),
            )
        return _integrate(
            flows, towers, duration, dt, measure_start, measure_end,
            handovers, capacity_window, tracer, profiler,
        )


def _integrate(
    flows: Sequence[FluidFlowSpec],
    towers: Sequence[TowerSpec],
    duration: float,
    dt: float,
    measure_start: float,
    measure_end: float,
    handovers: Sequence[HandoverSpec],
    capacity_window: float,
    tracer: Optional[obs.Tracer],
    profiler: Optional[obs.PhaseProfiler],
) -> FluidReport:
    n_flows = len(flows)
    n_towers = len(towers)
    n_steps = int(round(duration / dt))

    # -- capacity profiles, expanded to the step grid ------------------
    profiles = np.stack([
        tower.capacity_profile(duration, capacity_window)
        for tower in towers
    ])
    window_of_step = np.minimum(
        (np.arange(n_steps) * dt / capacity_window).astype(np.intp),
        profiles.shape[1] - 1,
    )
    cap = np.ascontiguousarray(profiles[:, window_of_step])  # [towers, steps] B/s

    # -- flow arrays ---------------------------------------------------
    tower_id = np.array([f.tower for f in flows], dtype=np.int64)
    start = np.array([f.start for f in flows], dtype=np.float64)
    rtt = np.array([f.rtt for f in flows], dtype=np.float64)
    rtt_steps = np.maximum(1, np.rint(rtt / dt).astype(np.int64))
    mstart = np.maximum(measure_start, start)
    banks = build_banks(flows, dt)
    handover_count = np.zeros(n_flows, dtype=np.int64)
    active = np.zeros(n_flows, dtype=bool)
    measuring = np.zeros(n_flows, dtype=bool)

    # Every other array lives in the step kernel (step.c), which reads
    # and writes it in place; the names are the kernel's fields.
    #
    # FIFO exit-delay bookkeeping: cumulative *accepted* arrival bytes
    # per step (``arr_hist``) against cumulative served bytes
    # (``srv_cum``); the pointer ``exit_ptr`` tracks the entry step of
    # the fluid leaving the queue now, so ``(step − exit_ptr)·dt`` is
    # the buffer delay a delivered byte actually experienced.  This is
    # the delay ACKs report — solving s + t_buff(s) = t exactly instead
    # of approximating it, which matters when the queue grows quickly
    # (the approximation's lookup index stalls and never sees the
    # growth).  A flow at step s observes ``delay_hist`` one
    # propagation RTT back.
    per_flow = ("x", "delivered", "observed", "tb_now", "delivered_bytes",
                "tb_sum", "tb_time", "tb_max", "cap_sum")
    per_tower = ("queue", "dropped", "arrival", "serve", "share", "tbuff",
                 "srv_cum", "served_sum", "tower_cap_sum", "tower_peak")
    arrays: Dict[str, np.ndarray] = {
        **{name: np.zeros(n_flows) for name in per_flow},
        **{name: np.zeros(n_towers) for name in per_tower},
        "tower_id": tower_id, "rtt_steps": rtt_steps, "start": start,
        "rtt": rtt, "active": active, "measuring": measuring, "cap": cap,
        "buffer_bytes": np.array([t.buffer_packets * MSS for t in towers],
                                 dtype=np.float64),
        # The reference capacity converts queue bytes into the *entry*
        # delay estimate even mid-outage (instantaneous rate may be 0).
        "cap_ref": np.maximum(cap[:, 0], CAPACITY_REF_FLOOR),
        "arr_hist": np.zeros((n_towers, n_steps + 1)),
        "delay_hist": np.zeros((n_towers, n_steps + 1)),
        "exit_ptr": np.zeros(n_towers, dtype=np.int64),
        "tower_loss_epochs": np.zeros(n_towers, dtype=np.int64),
        "overflowing": np.zeros(n_towers, dtype=bool),
    }
    kernel_banks = (kernel.Bank * len(banks))(
        *(bank.kernel_bank for bank in banks))
    fluid = kernel.Fluid(
        n_flows=n_flows, n_towers=n_towers, n_steps=n_steps,
        n_banks=len(banks), dt=dt,
        alpha_ref=1.0 - math.exp(-dt / CAPACITY_REF_TAU),
        cap_ref_floor=CAPACITY_REF_FLOOR, measure_start=measure_start,
        measure_end=measure_end, banks=ctypes.addressof(kernel_banks),
        **{name: kernel.pointer(array) for name, array in arrays.items()},
    )
    advance = functools.partial(kernel.library().fluid_advance,
                                ctypes.byref(fluid))
    x, observed, tb_now, delivered = (
        arrays[name] for name in ("x", "observed", "tb_now", "delivered"))
    python_banks = [bank for bank in banks if bank.python_rates]
    loss_banks = [(bank, kernel_banks[b]) for b, bank in enumerate(banks)
                  if bank.loss_based]

    # The kernel runs from one *stop* to the next.  Python acts at a
    # stop before the step: it applies the handovers due, rebuilds the
    # started and measuring masks, and emits the tower sample of the
    # step before.  The masks change at no more than 2·n_flows + 1 of
    # the steps: they are rebuilt, with the same float comparisons
    # against ``t``, only at the first step on or after each start, each
    # window opening, and the window's close — found on the grid of step
    # instants itself, so the masks are the per-step ones.
    grid = np.arange(n_steps) * dt
    mask_steps = np.unique(np.searchsorted(
        grid, np.concatenate([[0.0, measure_end], start, mstart])
    )).tolist()
    mask_steps.append(n_steps)                  # sentinel: never reached
    next_mask = 0

    plan = sorted(handovers, key=lambda h: (h.time, h.flow))
    plan_i = 0
    handovers_applied = 0
    # Each tower is a periodic source: a sampled tracer thins it to
    # every ``stride``-th tick of its 100 ms clock, so the kernel also
    # stops only at the ticks that are written.
    tick_steps = max(1, int(round(TOWER_SAMPLE_INTERVAL / dt)))
    budget = tracer.budget(obs.FLUID_TOWER) if tracer is not None else None
    sample_every = tick_steps * (
        budget.stride(tick_steps * dt) if budget is not None else 1)

    def sample_towers(step: int) -> None:
        t = step * dt
        tbuff, arrival = arrays["tbuff"], arrays["arrival"]
        for j in range(n_towers):
            if budget is not None and not budget.keep():
                continue
            tracer.sink.write({
                "t": t, "kind": obs.FLUID_TOWER, "tower": j,
                "tbuff": float(tbuff[j]), "capacity": float(cap[j, step]),
                "arrival": float(arrival[j]),
                "flows": int(np.count_nonzero(tower_id == j)),
            })
            tracer.events += 1

    prof_token = (profiler.begin("fluid.integrate")
                  if profiler is not None else None)
    step = 0
    while True:
        if tracer is not None and step and (step - 1) % sample_every == 0:
            sample_towers(step - 1)
        if step == n_steps:
            break
        t = step * dt

        # Handovers due at or before this step.
        while plan_i < len(plan) and plan[plan_i].time <= t:
            ho = plan[plan_i]
            plan_i += 1
            if tower_id[ho.flow] != ho.to_tower:
                if tracer is not None:
                    tracer.emit(
                        obs.FLUID_HANDOVER, t, flow=ho.flow,
                        src=int(tower_id[ho.flow]), dst=ho.to_tower,
                    )
                tower_id[ho.flow] = ho.to_tower
                handover_count[ho.flow] += 1
                handovers_applied += 1

        if step == mask_steps[next_mask]:
            next_mask += 1
            np.less_equal(start, t, out=active)
            active_of_bank = [active[bank.index] for bank in python_banks]
            np.copyto(measuring, active & (t >= mstart) & (t < measure_end))
            fluid.any_measuring = bool(measuring.any())

        # The next stop: a mask change, the next handover's step, or
        # (traced) the step after the next sampled one.  In between, the
        # kernel returns mid-step only for what Python computes.
        until = mask_steps[next_mask]
        if plan_i < len(plan):
            until = min(until, int(np.searchsorted(grid, plan[plan_i].time)))
        if tracer is not None:
            until = min(until, -(-step // sample_every) * sample_every + 1)
        while True:
            done = advance(until)
            if done == kernel.STEP_DONE:
                break
            t = fluid.step * dt
            if done == kernel.STEP_RATES:
                for bank, bank_active in zip(python_banks, active_of_bank):
                    idx = bank.index
                    x[idx] = bank.rates(
                        t, observed[idx], tb_now[idx], delivered[idx],
                        bank_active,
                    )
                continue
            # Loss epochs past the hold-off: the families react.
            for bank, kernel_bank in loss_banks:
                if kernel_bank.reacted:
                    bank.react_to_loss(t, bank.react)
                    if tracer is not None:
                        tracer.emit(
                            obs.FLUID_LOSS, t, family=bank.kind,
                            flows=kernel_bank.reacted,
                        )
        step = until

    if prof_token is not None:
        profiler.end(prof_token)
    if budget is not None:  # the ticks the stride skipped, per tower
        budget.dropped += n_towers * (len(range(0, n_steps, tick_steps))
                                      - len(range(0, n_steps, sample_every)))

    # -- reduction -----------------------------------------------------
    (delivered_bytes, tb_sum, tb_time, tb_max, cap_sum, served_sum,
     tower_cap_sum, tower_peak, dropped, tower_loss_epochs) = (
        arrays[name] for name in (
            "delivered_bytes", "tb_sum", "tb_time", "tb_max", "cap_sum",
            "served_sum", "tower_cap_sum", "tower_peak", "dropped",
            "tower_loss_epochs"))
    loss_by_flow = np.zeros(n_flows, dtype=np.int64)
    for bank in banks:
        loss_by_flow[bank.index] = bank.loss_epochs
    kind_by_flow = [""] * n_flows
    for bank in banks:
        for i in bank.index:
            kind_by_flow[i] = bank.kind

    flow_results: List[FluidFlowResult] = []
    for i, spec in enumerate(flows):
        window = max(measure_end - float(mstart[i]), 0.0)
        goodput = delivered_bytes[i] / window if window > 0 else 0.0
        capacity = cap_sum[i] / window if window > 0 else 0.0
        measured = tb_time[i] > 0.0
        flow_results.append(
            FluidFlowResult(
                name=spec.name or f"flow{i}",
                controller=kind_by_flow[i],
                goodput=float(goodput),
                delivered_bytes=float(delivered_bytes[i]),
                avg_tbuff=float(tb_sum[i] / tb_time[i]) if measured
                else float("nan"),
                max_tbuff=float(tb_max[i]) if measured else float("nan"),
                utilization=(
                    float(goodput / capacity) if capacity > 0 else None
                ),
                loss_epochs=int(loss_by_flow[i]),
                handovers=int(handover_count[i]),
                final_tower=int(tower_id[i]),
                measure_start=float(mstart[i]),
                measure_end=float(measure_end),
            )
        )

    tower_summaries: List[TowerSummary] = []
    window = max(measure_end - measure_start, 1e-9)
    for j, tower in enumerate(towers):
        capacity = tower_cap_sum[j] / window
        tower_summaries.append(
            TowerSummary(
                name=tower.name or f"tower{j}",
                flows_final=int(np.count_nonzero(tower_id == j)),
                mean_capacity=float(capacity),
                utilization=(
                    float(served_sum[j] / tower_cap_sum[j])
                    if tower_cap_sum[j] > 0 else 0.0
                ),
                peak_tbuff=float(tower_peak[j]),
                dropped_bytes=float(dropped[j]),
                loss_epochs=int(tower_loss_epochs[j]),
            )
        )

    goodputs = [f.goodput for f in flow_results]
    report = FluidReport(
        flows=flow_results,
        towers=tower_summaries,
        jfi=jain_fairness(goodputs),
        duration=duration,
        dt=dt,
        steps=n_steps,
        handovers_applied=handovers_applied,
    )
    if tracer is not None:
        metrics = tracer.metrics
        metrics.counter("run.fluid.steps").add(n_steps)
        metrics.counter("run.fluid.handovers").add(handovers_applied)
        metrics.counter("run.fluid.loss_epochs").add(
            int(loss_by_flow.sum())
        )
        # Standalone fluid runs previously never wrote their metrics
        # snapshot into the trace (the counters only surfaced through a
        # batch merge); emit it so `repro trace` and the dashboard see
        # fluid counters and dropped-event accounting.
        tracer.emit(obs.METRICS, duration, scope="run",
                    metrics=obs.close_scope(tracer, "run", profiler))
        tracer.emit(
            obs.FLUID_END, duration, flows=n_flows,
            jfi=finite_or_none(report.jfi),
        )
    return report
