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

Everything is vectorized across flows, so a step costs a handful of
numpy operations regardless of flow count: thousands of flows run in
seconds of wall time (see benchmarks/bench_fluid_scaling.py), which is
what the ROADMAP's "millions of users" tier needs.  Correctness is
anchored by scripts/check_fluid_xval.py: overlapping scenarios run
through both tiers must agree within checked-in tolerance bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

import repro.obs as obs
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
    ``"adaptive-proprate"`` (additionally ``min_target``, the §6
    shrink floor), ``"cubic"``, or ``"policy"`` (externally driven
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
    #: §6 shrink floor ("adaptive-proprate" only).
    min_target: float = 0.005
    #: Per-step action callable ("policy" only); flows sharing the same
    #: callable are banked together.
    policy: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.rtt <= 0:
            raise ValueError("rtt must be positive")
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.controller in ("proprate", "adaptive-proprate") \
                and self.target_tbuff <= 0:
            raise ValueError("target_tbuff must be positive")
        if self.controller == "adaptive-proprate" and not (
            0 < self.min_target <= self.target_tbuff
        ):
            raise ValueError("min_target must be in (0, target_tbuff]")


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
    sampling: Optional[Any] = None,
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

    The integration is pure numpy on a fixed grid — no wall-clock, no
    RNG — so a repeated run of the same scenario is bit-identical.
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
    cap = profiles[:, window_of_step]           # [towers, steps] bytes/s

    # -- flow arrays ---------------------------------------------------
    tower_id = np.array([f.tower for f in flows], dtype=np.intp)
    start = np.array([f.start for f in flows])
    rtt = np.array([f.rtt for f in flows])
    rtt_steps = np.maximum(1, np.rint(rtt / dt).astype(np.intp))
    mstart = np.maximum(measure_start, start)
    banks = build_banks(flows, dt)

    x = np.zeros(n_flows)                       # send rate
    delivered = np.zeros(n_flows)               # delivered rate last step
    handover_count = np.zeros(n_flows, dtype=np.int64)

    # -- tower state ---------------------------------------------------
    queue = np.zeros(n_towers)                  # bytes
    buffer_bytes = np.array(
        [t.buffer_packets * MSS for t in towers]
    )
    cap_ref = np.maximum(cap[:, 0], CAPACITY_REF_FLOOR)
    alpha_ref = 1.0 - math.exp(-dt / CAPACITY_REF_TAU)
    overflowing = np.zeros(n_towers, dtype=bool)
    dropped = np.zeros(n_towers)
    tower_loss_epochs = np.zeros(n_towers, dtype=np.int64)

    # FIFO exit-delay bookkeeping: cumulative *accepted* arrival bytes
    # per step (``arr_hist``) against cumulative served bytes; the
    # pointer ``exit_ptr`` tracks the entry step of the fluid leaving
    # the queue now, so ``(step − exit_ptr)·dt`` is the buffer delay a
    # delivered byte actually experienced.  This is the delay ACKs
    # report — solving s + t_buff(s) = t exactly instead of
    # approximating it, which matters when the queue grows quickly
    # (the approximation's lookup index stalls and never sees the
    # growth).  Both histories are read through their flat views:
    # ``row_of_tower[j] + s`` addresses tower j's column s.
    arr_hist = np.zeros((n_towers, n_steps + 1))
    arr_flat = arr_hist.reshape(-1)
    srv_cum = np.zeros(n_towers)
    exit_ptr = np.zeros(n_towers, dtype=np.intp)
    delay_hist = np.zeros((n_towers, n_steps + 1))
    delay_flat = delay_hist.reshape(-1)
    row_of_tower = np.arange(n_towers) * (n_steps + 1)
    # Flat index of the delay each flow observes at step 0 — its
    # tower's row, ``rtt_steps`` columns back; a handover re-bases it.
    lag_index = row_of_tower[tower_id] - rtt_steps

    # -- measurement accumulators --------------------------------------
    delivered_bytes = np.zeros(n_flows)
    tb_sum = np.zeros(n_flows)
    tb_time = np.zeros(n_flows)
    tb_max = np.zeros(n_flows)
    cap_sum = np.zeros(n_flows)                 # total tower capacity seen
    served_sum = np.zeros(n_towers)
    tower_cap_sum = np.zeros(n_towers)
    tower_peak = np.zeros(n_towers)

    # The started and measuring masks change at no more than
    # 2·n_flows + 1 of the steps: they are rebuilt, with the same float
    # comparisons against ``t``, only at the first step on or after each
    # start, each window opening, and the window's close — found on the
    # grid of step instants itself, so the masks are the per-step ones.
    grid = np.arange(n_steps) * dt
    mask_steps = np.unique(np.searchsorted(
        grid, np.concatenate([[0.0, measure_end], start, mstart])
    )).tolist()
    mask_steps.append(n_steps)                  # sentinel: never reached
    next_mask = 0

    # Until every flow is past its first RTT, flows inside it observe
    # nothing, and until ``step`` passes the longest lag the lookup
    # clamps at column 0; both fall away for the rest of the run.
    last_start = float(start.max())
    longest_rtt = float(rtt.max())
    longest_lag = int(rtt_steps.max())
    first_rtt = True

    plan = sorted(handovers, key=lambda h: (h.time, h.flow))
    plan_i = 0
    handovers_applied = 0
    sample_every = max(1, int(round(TOWER_SAMPLE_INTERVAL / dt)))
    prof_token = (profiler.begin("fluid.integrate")
                  if profiler is not None else None)

    for step in range(n_steps):
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
                lag_index[ho.flow] += (
                    row_of_tower[ho.to_tower] - row_of_tower[tower_id[ho.flow]]
                )
                tower_id[ho.flow] = ho.to_tower
                handover_count[ho.flow] += 1
                handovers_applied += 1

        if step == mask_steps[next_mask]:
            next_mask += 1
            active = start <= t
            active_of_bank = [active[bank.index] for bank in banks]
            measuring = active & (t >= mstart) & (t < measure_end)
            any_measuring = bool(measuring.any())
            all_measuring = bool(measuring.all())
            measuring_dt = measuring * dt

        # Feedback-lagged observation: fluid exiting the queue at time
        # s carried the delay it experienced; the ACK reaches its
        # sender one propagation RTT later, so the controller at t sees
        # the exit delay from t − rtt.
        lagged = lag_index + step
        if step < longest_lag:
            np.maximum(lagged, lag_index + rtt_steps, out=lagged)
        observed = delay_flat.take(lagged)
        if first_rtt:
            # Float subtraction is monotone, so once the last starter
            # is past the longest RTT no flow can still be inside its
            # own.
            if t - last_start < longest_rtt:
                observed = np.where(t - start < rtt, 0.0, observed)
            else:
                first_rtt = False

        # Current standing-queue delay (what fluid entering *now* will
        # wait) — the self-clocking term for window controllers.
        tb_now = (queue / cap_ref).take(tower_id)

        # Controller banks → send rates.
        for bank, bank_active in zip(banks, active_of_bank):
            idx = bank.index
            x[idx] = bank.rates(
                t, observed[idx], tb_now[idx], delivered[idx], bank_active
            )

        # Tower aggregation and fluid FIFO service split.
        arrival = np.bincount(tower_id, weights=x, minlength=n_towers)
        c_now = cap[:, step]
        backlogged = (queue > 0.0) | (arrival > c_now)
        serve = np.where(backlogged, c_now, arrival)
        share = np.where(arrival > 0.0, serve / np.maximum(arrival, 1e-12),
                         0.0)
        delivered = x * share.take(tower_id)

        # Queue integration with drop-tail overflow.
        queue = queue + (arrival - serve) * dt
        np.maximum(queue, 0.0, out=queue)
        over = queue > buffer_bytes
        # Cumulative accepted arrivals (the FIFO bookkeeping below).
        accepted = arr_hist[:, step] + arrival * dt
        # (count_nonzero, not .any(): no Python-level wrapper, a third
        # of the cost on tower-sized arrays.)
        if np.count_nonzero(over):
            excess = np.where(over, queue - buffer_bytes, 0.0)
            dropped += excess
            accepted -= excess
            np.minimum(queue, buffer_bytes, out=queue)
            # Tower loss *epochs* count overflow onsets (rising edges);
            # the loss signal to the flows is level-triggered — while
            # the buffer overflows every incoming packet beyond it is
            # dropped, and the banks' own per-RTT hold-off paces how
            # often a flow reacts.
            tower_loss_epochs += over & ~overflowing
            for bank in banks:
                if not bank.loss_based:
                    continue
                idx = bank.index
                hit = over[tower_id[idx]] & (x[idx] > 0.0)
                reacted = bank.on_overflow(t, hit)
                if reacted and tracer is not None:
                    tracer.emit(
                        obs.FLUID_LOSS, t, family=bank.kind,
                        flows=reacted,
                    )
        overflowing = over

        # FIFO exit-delay update: accepted bytes extend the arrival
        # cumulative; the exit pointer chases the served cumulative.
        arr_hist[:, step + 1] = accepted
        srv_cum += serve * dt
        while True:
            # Clamp the lookup: on an idle tower exit_ptr reaches
            # step + 1, where the (masked-out) exit_ptr + 1 column does
            # not exist yet.
            nxt = np.minimum(exit_ptr + 1, step + 1)
            can_advance = (exit_ptr < step + 1) & (
                arr_flat.take(row_of_tower + nxt) <= srv_cum
            )
            if not np.count_nonzero(can_advance):
                break
            exit_ptr += can_advance
        tbuff = np.where(queue > 0.0, (step + 1 - exit_ptr) * dt, 0.0)
        delay_hist[:, step + 1] = tbuff

        # Reference capacity EWMA: converts queue bytes into the
        # *entry* delay estimate even mid-outage (instantaneous rate
        # may be zero).
        cap_ref += alpha_ref * (c_now - cap_ref)
        np.maximum(cap_ref, CAPACITY_REF_FLOOR, out=cap_ref)

        # Measurement window accumulation.  Products with ``dt`` are
        # formed on the tower arrays and gathered; outside the window a
        # flow's terms are multiplied by zero.
        if all_measuring:
            delivered_bytes += delivered * dt
            tb_sum += (tbuff * dt).take(tower_id)
            tb_time += dt
            np.maximum(tb_max, tbuff.take(tower_id), out=tb_max)
            cap_sum += (c_now * dt).take(tower_id)
        elif any_measuring:
            delivered_bytes += delivered * measuring_dt
            tb_sum += tbuff.take(tower_id) * measuring_dt
            tb_time += measuring_dt
            np.maximum(tb_max, tbuff.take(tower_id) * measuring,
                       out=tb_max)
            cap_sum += c_now.take(tower_id) * measuring_dt
        if measure_start <= t < measure_end:
            served_sum += serve * dt
            tower_cap_sum += c_now * dt
            np.maximum(tower_peak, tbuff, out=tower_peak)

        if tracer is not None and step % sample_every == 0:
            for j in range(n_towers):
                tracer.emit(
                    obs.FLUID_TOWER, t, tower=j,
                    tbuff=float(tbuff[j]), capacity=float(c_now[j]),
                    arrival=float(arrival[j]),
                    flows=int(np.count_nonzero(tower_id == j)),
                )

    if prof_token is not None:
        profiler.end(prof_token)

    # -- reduction -----------------------------------------------------
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
