"""Run functions for the paper's own tables and figures.

Each function regenerates one artifact into a :class:`Report` and
states the paper's shape checks as claims; its docstring's first
paragraph is the artifact's description in the catalogue.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

import repro.obs as obs
from repro.core.model import (
    FluidResult,
    PropRateParams,
    Regime,
    derive_parameters,
    simulate_sawtooth,
)
from repro.core.proprate import PropRate
from repro.experiments.algorithms import paper_algorithms, run_shootout
from repro.experiments.frontier import nfl_convergence, sweep_frontier
from repro.experiments.runner import FlowResult, cellular_path_config, run_single_flow
from repro.experiments.scenarios import (
    contention_vs_cubic,
    self_contention,
    uplink_congestion,
    wired_path,
)
from repro.metrics.telemetry import QueueSampler, SawtoothSummary, sawtooth_summary
from repro.report.export import flow_results_to_csv, frontier_to_csv
from repro.reproduce.report import DURATION, MEASURE_START, Report, flow_row
from repro.sim.engine import Simulator
from repro.sim.network import DuplexPath
from repro.tcp.congestion import Bbr, Cubic
from repro.tcp.congestion.base import CongestionControl
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.traces.generator import constant_rate_trace
from repro.traces.presets import (
    TABLE2_TARGETS,
    WIRED_PATHS,
    isp_trace,
    lte_validation_trace,
    sprint_like_trace,
)
from repro.traces.trace import Trace


def _rel_err(value: float, expected: float) -> float:
    """``|value - expected| / |expected|``: the quantity ``pytest.approx``'s
    ``rel=`` bounds."""
    return abs(value - expected) / abs(expected)


def isp_pair(isp: str, mode: str, duration: float) -> Tuple[Trace, Trace]:
    """The downlink and uplink traces of one ISP preset."""
    return (
        isp_trace(isp, mode, duration=duration),
        isp_trace(isp, mode, duration=duration, direction="uplink"),
    )


# ----------------------------------------------------------------------
# Tables 2-4


def table2_traces(r: Report) -> None:
    """Trace statistics: mean and std of 100 ms throughput for the six
    ISP traces, next to the paper's targets.

    The reproduction must match the paper's moments closely: mean within
    3 %, standard deviation within 10 %.
    """
    lines = [
        f"{'Trace':22s} {'Mean KB/s':>10s} {'(paper)':>9s} "
        f"{'Std KB/s':>10s} {'(paper)':>9s}"
    ]
    for (isp, mode), (mean_t, std_t) in sorted(TABLE2_TARGETS.items()):
        stats = isp_trace(isp, mode, duration=120.0).stats()
        lines.append(
            f"ISP {isp}-{mode:11s} {stats.mean_kbps:10.1f} {mean_t:9.1f} "
            f"{stats.std_kbps:10.1f} {std_t:9.1f}"
        )
        r.claim(f"mean_rel_err[{isp}-{mode}]",
                _rel_err(stats.mean_kbps, mean_t), "<", 0.03)
        r.claim(f"std_rel_err[{isp}-{mode}]",
                _rel_err(stats.std_kbps, std_t), "<", 0.10)
    r.emit("table2_traces", lines)


#: The paper's Table 3 (algorithm → (regulation, trigger)).
TABLE3 = {
    "PropRate": ("Rate-based (+ window-capped)", "Buffer Delay"),
    "RRE": ("Rate-based", "Buffer Delay"),
    "BBR": ("Rate-based", "NA"),
    "PCC": ("Rate-based", "Utility Function"),
    "PROTEUS": ("Rate-based", "Rate Forecast"),
    "Sprout": ("Window-based", "Rate Forecast"),
    "Verus": ("Window-based", "Utility Function"),
    "LEDBAT": ("Window-based", "Buffer Delay + Packet Loss"),
    "CUBIC": ("cwnd-based", "Packet Loss"),
    "Vegas": ("cwnd-based", "Packet Loss"),
    "Westwood": ("cwnd-based", "Packet Loss"),
}


def table3_taxonomy(r: Report) -> None:
    """Algorithm taxonomy: sending regulation and congestion trigger of
    every evaluated algorithm, checked against the paper's table."""
    ccs = [factory() for factory in paper_algorithms().values()]
    lines = [f"{'Algorithm':12s} {'Sending Regulation':30s} Congestion Trigger"]
    for cc in ccs:
        lines.append(
            f"{cc.name:12s} {cc.sending_regulation:30s} {cc.congestion_trigger}"
        )
    r.emit("table3_taxonomy", lines)
    built = {cc.name: cc for cc in ccs}
    for name, (regulation, trigger) in TABLE3.items():
        cc = built[name]
        r.claim(f"regulation[{name}]", cc.sending_regulation, "==", regulation)
        r.claim(f"trigger[{name}]", cc.congestion_trigger, "==", trigger)
        r.claim(f"rate_based[{name}]", cc.is_rate_based, "==",
                regulation.startswith("Rate-based"))


#: Table 4's cheap control loops vs expensive forecast/utility loops.
T4_CHEAP = ("PR(M)", "CUBIC", "BBR", "RRE", "NewReno", "Vegas", "Westwood", "LEDBAT")
T4_EXPENSIVE = ("Sprout", "PCC", "Verus")
T4_DURATION = 15.0


def table4_cpu(r: Report) -> None:
    """Control-computation overhead per algorithm (CPU-utilisation
    substitute): the profiler's ``cc.control`` phase per simulated second.

    Each run executes under a bare :class:`~repro.obs.PhaseProfiler` with
    no tracer, so no telemetry cost lands inside the control time.  The
    tracked table holds only the deterministic columns (calls, goodput)
    in line-up order; the wall-clock times go to stdout and to the
    claims.  The paper's ordering does not reproduce under this proxy
    (EXPERIMENTS.md), so the claims only require the time to be measured.
    """
    down, up = isp_pair("A", "stationary", 60.0)
    costs: Dict[str, Tuple[float, int, float]] = {}
    for name, factory in paper_algorithms().items():
        with obs.profiling() as prof:
            result = run_single_flow(
                factory, down, up, duration=T4_DURATION, measure_start=2.0,
            )
        calls, wall, _cpu = prof.phases.get("cc.control", (0, 0.0, 0.0))
        costs[name] = (wall / T4_DURATION * 1000, calls, result.throughput_kbps)
    r.emit("table4_cpu", [f"{'Algorithm':10s} {'calls':>9s} {'tput KB/s':>10s}"] + [
        f"{name:10s} {calls:9d} {tput:10.1f}"
        for name, (_ms, calls, tput) in costs.items()
    ])
    print(f"{'Algorithm':10s} {'ctrl ms/sim-s':>14s}  (this host; not tracked)")
    for name, (ms, _calls, _tput) in sorted(costs.items(), key=lambda kv: kv[1][0]):
        print(f"{name:10s} {ms:14.3f}")
    expensive = [costs[name][0] for name in T4_EXPENSIVE]
    r.claim("expensive_mean_ms_per_sim_s", sum(expensive) / len(expensive), ">", 0)
    r.claim("cheap_max_ms_per_sim_s", max(costs[name][0] for name in T4_CHEAP), ">", 0)


# ----------------------------------------------------------------------
# Figures 1-3: the sawtooth, fluid model and packet level

_WAVE_RTT = 0.040
_WAVE_RATE = 1_500_000.0


def fig1_3_waveforms(r: Report) -> None:
    """Sawtooth waveforms of the fluid model in both regimes, checked
    against the closed forms of §3.

    Buffer-full oscillation between D_min = T/2 and D_max = 3T/2
    (Figure 1 / 3(e)) and the periodically-emptied waveform (Figure 2 /
    3(f)).
    """
    params_f = derive_parameters(0.080, _WAVE_RTT)
    full = simulate_sawtooth(
        _WAVE_RATE, _WAVE_RTT, params_f.threshold, params_f.kf, params_f.kd,
        duration=30.0, initial_tbuff=0.04,
    )
    params_e = derive_parameters(0.020, _WAVE_RTT)
    emptied = simulate_sawtooth(
        _WAVE_RATE, _WAVE_RTT, params_e.threshold, params_e.kf, params_e.kd,
        duration=30.0,
    )
    rows: List[Tuple[str, PropRateParams, FluidResult]] = [
        ("fig1 buffer-full", params_f, full),
        ("fig2 buffer-emptied", params_e, emptied),
    ]
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
    r.emit("fig1_3_waveforms", lines)

    r.claim("fig1.regime", params_f.regime.value, "==", Regime.BUFFER_FULL.value)
    r.claim("fig1.utilization", full.utilization, ">", 0.99)
    r.claim("fig1.dmax_rel_err", _rel_err(full.dmax, params_f.predicted_dmax),
            "<=", 0.05)
    r.claim("fig1.avg_tbuff_rel_err",
            _rel_err(full.avg_tbuff, params_f.target_tbuff), "<=", 0.05)
    r.claim("fig2.regime", params_e.regime.value, "==", Regime.BUFFER_EMPTIED.value)
    r.claim("fig2.empty_fraction", emptied.empty_fraction, ">", 0.02)
    r.claim("fig2.dmin_abs_s", abs(emptied.dmin), "<=", 1e-3)
    r.claim("fig2.avg_tbuff_rel_err",
            _rel_err(emptied.avg_tbuff, params_e.target_tbuff), "<=", 0.35)


def _packet_waveform(target: float) -> SawtoothSummary:
    """The buffer-delay sawtooth of one PropRate flow (NFL off) on a
    constant-rate bottleneck, sampled from the forward queue every 5 ms."""
    duration = 30.0
    sim = Simulator()
    trace = constant_rate_trace(_WAVE_RATE, duration + 1.0)
    path = DuplexPath(sim, cellular_path_config(trace))
    recv = TcpReceiver(sim, 0, send_ack=path.send_reverse)
    cc = PropRate(target, enable_feedback=False)
    sender = TcpSender(sim, 0, cc, send_packet=path.send_forward)
    path.attach_flow(0, recv.receive, sender.on_ack_packet)
    sampler = QueueSampler(sim, path.forward_link.queue, interval=0.005)
    sender.start()
    sim.run(until=duration)
    times, _ = sampler.as_arrays()
    delays = sampler.buffer_delays(service_rate=_WAVE_RATE)
    return sawtooth_summary(times, delays, discard=0.4)


def waveform_packet(r: Report) -> None:
    """The buffer-delay sawtooth extracted from the full packet simulator
    and checked against the closed-form geometry.

    Quantisation, estimator lag and pacing make the packet-level
    waveform rougher than the fluid model's, so the bands are wider.
    The NFL is disabled so the raw regulation loop is measured against
    the open-loop model (the NFL deliberately moves T away from the
    derivation to cancel measurement bias).
    """
    full, full_params = _packet_waveform(0.080), derive_parameters(0.080, _WAVE_RTT)
    emptied, emptied_params = _packet_waveform(0.020), derive_parameters(0.020, _WAVE_RTT)
    lines = []
    for label, summary, params in (
        ("buffer-full t=80ms", full, full_params),
        ("buffer-emptied t=20ms", emptied, emptied_params),
    ):
        lines.append(
            f"{label:22s} Dmax={summary.dmax * 1000:6.1f} "
            f"(model {params.predicted_dmax * 1000:5.1f}) "
            f"Dmin={summary.dmin * 1000:6.1f} "
            f"(model {params.predicted_dmin * 1000:5.1f}) "
            f"avg={summary.average * 1000:6.1f} "
            f"(target {params.target_tbuff * 1000:5.1f}) "
            f"empty={summary.empty_fraction:5.2f} cycles={summary.n_cycles}"
        )
    r.emit("waveform_packet", lines)

    # Buffer-full regime: within ~20 % of the closed-form geometry, and
    # the buffer essentially never empties.
    r.claim("full.cycles", full.n_cycles, ">=", 5)
    r.claim("full.empty_fraction", full.empty_fraction, "<", 0.10)
    r.claim("full.dmax_rel_err", _rel_err(full.dmax, full_params.predicted_dmax),
            "<=", 0.25)
    r.claim("full.dmin_rel_err", _rel_err(full.dmin, full_params.predicted_dmin),
            "<=", 0.35)
    r.claim("full.avg_rel_err", _rel_err(full.average, full_params.target_tbuff),
            "<=", 0.25)
    r.claim("full.dmax_above_dmin", full.dmax, ">", full.dmin)
    # Buffer-emptied regime: the buffer genuinely empties periodically
    # and the average sits near the (small) target.
    r.claim("emptied.empty_fraction", emptied.empty_fraction, ">", 0.05)
    r.claim("emptied.avg_s", emptied.average, "<", 2.5 * emptied_params.target_tbuff)
    r.claim("emptied.cycles", emptied.n_cycles, ">=", 5)


# ----------------------------------------------------------------------
# Figures 7-11: the line-up on single flows


def _shootout(r: Report, mode: str) -> Dict[str, FlowResult]:
    down, up = isp_pair("A", mode, 60.0)
    return run_shootout(
        down, up, duration=DURATION, measure_start=MEASURE_START, n_jobs=r.jobs,
    )


def _emit_lineup(r: Report, name: str, results: Dict[str, FlowResult]) -> None:
    r.emit(name, [flow_row(algo, res) for algo, res in results.items()])
    flow_results_to_csv(results, r.path(f"{name}.csv"))


def fig7a_stationary(r: Report) -> None:
    """Throughput vs mean/95th-pct one-way delay for every algorithm on
    the ISP-A stationary trace.

    PropRate traces a more efficient frontier (PR(H) approaches the
    loss-based algorithms' throughput at a fraction of their delay);
    CUBIC fills the 2,000-packet buffer; the forecasters (Sprout, PCC)
    get low delay at a large throughput penalty; BBR gets high
    throughput at moderate delay.
    """
    results = _shootout(r, "stationary")
    _emit_lineup(r, "fig7a_stationary", results)
    pr_l, pr_m, pr_h = results["PR(L)"], results["PR(M)"], results["PR(H)"]
    cubic, bbr = results["CUBIC"], results["BBR"]
    sprout, pcc = results["Sprout"], results["PCC"]
    # The PropRate knob is monotone along the frontier.
    r.claim("delay.PR(L)<PR(M)", pr_l.delay.mean, "<", pr_m.delay.mean)
    r.claim("delay.PR(M)<PR(H)", pr_m.delay.mean, "<", pr_h.delay.mean)
    r.claim("tput.PR(L)<PR(H)", pr_l.throughput, "<", pr_h.throughput)
    # CUBIC: an order of magnitude more delay than PR(H) for comparable
    # throughput.
    r.claim("delay.CUBIC>4xPR(H)", cubic.delay.mean, ">", 4 * pr_h.delay.mean)
    r.claim("tput.PR(H)>0.6xCUBIC", pr_h.throughput, ">", 0.6 * cubic.throughput)
    # Forecast-based algorithms: low delay, large throughput penalty.
    r.claim("delay.Sprout<CUBIC/4", sprout.delay.mean, "<", cubic.delay.mean / 4)
    r.claim("tput.Sprout<0.7xPR(H)", sprout.throughput, "<", 0.7 * pr_h.throughput)
    r.claim("tput.PCC<0.7xPR(H)", pcc.throughput, "<", 0.7 * pr_h.throughput)
    # PR(L) reaches the forecasters' delay class at higher throughput
    # (the paper's headline result).
    r.claim("tput.PR(L)>max(Sprout,PCC)", pr_l.throughput, ">",
            max(sprout.throughput, pcc.throughput))
    # BBR: high throughput, moderate delay.
    r.claim("tput.BBR>0.8xCUBIC", bbr.throughput, ">", 0.8 * cubic.throughput)
    r.claim("delay.BBR<0.5xCUBIC", bbr.delay.mean, "<", 0.5 * cubic.delay.mean)


def fig7b_mobile(r: Report) -> None:
    """The same line-up on the ISP-A mobile trace: the PropRate knob still
    orders delay, and CUBIC still pays several times PR(H)'s delay."""
    results = _shootout(r, "mobile")
    _emit_lineup(r, "fig7b_mobile", results)
    pr_l, pr_h, cubic = results["PR(L)"], results["PR(H)"], results["CUBIC"]
    r.claim("delay.PR(L)<PR(H)", pr_l.delay.mean, "<", pr_h.delay.mean)
    r.claim("delay.CUBIC>3xPR(H)", cubic.delay.mean, ">", 3 * pr_h.delay.mean)


def fig8_sprint(r: Report) -> None:
    """The line-up on a Sprint-like trace with 54 % outage time.

    Aggressive loss-based algorithms grab what little throughput exists
    at enormous delays, PropRate suffers outage-induced losses, and
    nobody exceeds the trace's capacity by more than the backlog carried
    into the measurement window.
    """
    trace = sprint_like_trace(duration=120.0)
    results = {
        name: run_single_flow(
            factory, trace, None,
            duration=max(DURATION, 60.0), measure_start=MEASURE_START,
        )
        for name, factory in paper_algorithms().items()
    }
    r.emit("fig8_sprint", [flow_row(name, res) for name, res in results.items()])
    # With multi-second outages the queue built before measure_start
    # drains inside the window, so goodput can transiently exceed the
    # window's own capacity.
    capacity = trace.mean_throughput()
    for name, result in results.items():
        r.claim(f"tput_within_capacity[{name}]", result.throughput, "<=",
                capacity * 1.5)
    cubic, sprout = results["CUBIC"], results["Sprout"]
    if cubic.delay.count and sprout.delay.count:
        r.claim("p95.CUBIC>Sprout", cubic.delay.p95, ">", sprout.delay.p95)
    # Outages mean losses for PropRate (the paper's observation).
    pr_h = results["PR(H)"]
    r.claim("PR(H).rtos+retransmissions", pr_h.rto_count + pr_h.retransmissions,
            ">", 0)


FIG9_TARGETS_MS = (20, 40, 60, 80, 100, 120)


def fig9_nfl(r: Report) -> None:
    """Negative-feedback-loop effectiveness: target vs achieved buffer
    delay, with and without NFL, on the mobile traces of ISPs A, B, C.

    The achieved delay is measured externally (mean one-way delay minus
    the propagation delay); the NFL must track the target at least as
    well as the open loop, within a sane band.
    """
    lines = [f"{'ISP':4s} {'target ms':>9s} {'NFL ms':>8s} {'no-NFL ms':>10s}"]
    errors_nfl: List[float] = []
    errors_plain: List[float] = []
    for isp in ("A", "B", "C"):
        down, up = isp_pair(isp, "mobile", 60.0)
        points = nfl_convergence(
            down, up,
            targets=[t / 1000.0 for t in FIG9_TARGETS_MS],
            duration=DURATION, measure_start=MEASURE_START, n_jobs=r.jobs,
        )
        with_nfl = {p.target_tbuff: p for p in points if p.with_feedback}
        without = {p.target_tbuff: p for p in points if not p.with_feedback}
        for target in sorted(with_nfl):
            nfl_pt, plain_pt = with_nfl[target], without[target]
            lines.append(
                f"{isp:4s} {target * 1000:9.0f} "
                f"{nfl_pt.achieved_tbuff * 1000:8.1f} "
                f"{plain_pt.achieved_tbuff * 1000:10.1f}"
            )
            errors_nfl.append(abs(nfl_pt.error))
            errors_plain.append(abs(plain_pt.error))
    mean_nfl = sum(errors_nfl) / len(errors_nfl)
    mean_plain = sum(errors_plain) / len(errors_plain)
    lines.append(f"mean |error|: NFL {mean_nfl*1000:.1f} ms, no NFL {mean_plain*1000:.1f} ms")
    r.emit("fig9_nfl", lines)
    r.claim("mean_err.NFL<=1.1xplain", mean_nfl, "<=", mean_plain * 1.10)
    r.claim("mean_err.NFL_s", mean_nfl, "<", 0.060)


#: A thinned version of the paper grid (12-30 ms step 1, 30-120 ms
#: step 4); the full grid is sweep_frontier(targets=None).
FIG10_TARGETS = [t / 1000.0 for t in list(range(12, 31, 3)) + list(range(34, 121, 12))]
FIG10_DURATION = 20.0


def _rank_corr(a: np.ndarray, b: np.ndarray) -> float:
    ra, rb = np.argsort(np.argsort(a)), np.argsort(np.argsort(b))
    return float(np.corrcoef(ra, rb)[0, 1])


def fig10_frontier(r: Report) -> None:
    """PropRate performance frontier over the t̄_buff grid on the ISP-A
    mobile trace, plus CUBIC/BBR/Sprout/PCC reference points.

    More target delay buys more throughput (rank correlation, allowing
    for simulation noise), and the frontier dominates the forecasters'
    fixed operating points.
    """
    down, up = isp_pair("A", "mobile", 60.0)
    points = sweep_frontier(
        down, up, targets=FIG10_TARGETS,
        duration=FIG10_DURATION, measure_start=MEASURE_START, n_jobs=r.jobs,
    )
    references = run_shootout(
        down, up, names=("CUBIC", "BBR", "Sprout", "PCC"),
        duration=FIG10_DURATION, measure_start=MEASURE_START, n_jobs=r.jobs,
    )
    lines = [f"{'target ms':>9s} {'tput KB/s':>10s} {'mean ms':>8s} {'p95 ms':>8s}"]
    for p in points:
        lines.append(
            f"{p.target_tbuff * 1000:9.0f} {p.throughput_kbps:10.1f} "
            f"{p.mean_delay_ms:8.1f} {p.p95_delay_ms:8.1f}"
        )
    lines.append("-- reference points --")
    for name, res in references.items():
        lines.append(
            f"{name:>9s} {res.throughput_kbps:10.1f} {res.delay.mean_ms:8.1f} "
            f"{res.delay.p95_ms:8.1f}"
        )
    r.emit("fig10_frontier", lines)
    frontier_to_csv(points, r.path("fig10_frontier.csv"))
    flow_results_to_csv(references, r.path("fig10_references.csv"))

    tputs = np.array([p.throughput_kbps for p in points])
    delays = np.array([p.mean_delay_ms for p in points])
    targets = np.array([p.target_tbuff for p in points])
    r.claim("rank_corr.target~delay", _rank_corr(targets, delays), ">", 0.7)
    r.claim("rank_corr.target~tput", _rank_corr(targets, tputs), ">", 0.4)
    # Some sweep point beats Sprout and PCC on *both* axes.
    for name in ("Sprout", "PCC"):
        ref = references[name]
        dominating = sum(
            p.throughput_kbps >= ref.throughput_kbps
            and p.mean_delay_ms <= ref.delay.mean_ms * 1.6
            for p in points
        )
        r.claim(f"points_dominating[{name}]", dominating, ">", 0)


def fig11_lte(r: Report) -> None:
    """Validation on the held-out LTE trace family: the Figure-7 ordering
    carries over to independently generated traces (different seeds and
    moments), so the findings are not artefacts of one trace."""
    down = lte_validation_trace(duration=60.0)
    up = lte_validation_trace(duration=60.0, direction="uplink")
    results = run_shootout(
        down, up, duration=DURATION, measure_start=MEASURE_START, n_jobs=r.jobs,
    )
    r.emit("fig11_lte", [flow_row(name, res) for name, res in results.items()])
    pr_l, pr_h = results["PR(L)"], results["PR(H)"]
    cubic, bbr, sprout = results["CUBIC"], results["BBR"], results["Sprout"]
    r.claim("delay.PR(L)<PR(H)", pr_l.delay.mean, "<", pr_h.delay.mean)
    r.claim("tput.PR(L)<PR(H)", pr_l.throughput, "<", pr_h.throughput)
    r.claim("delay.CUBIC>3xPR(H)", cubic.delay.mean, ">", 3 * pr_h.delay.mean)
    r.claim("tput.PR(H)>0.6xCUBIC", pr_h.throughput, ">", 0.6 * cubic.throughput)
    r.claim("tput.Sprout<PR(H)", sprout.throughput, "<", pr_h.throughput)
    r.claim("delay.BBR<0.5xCUBIC", bbr.delay.mean, "<", 0.5 * cubic.delay.mean)


# ----------------------------------------------------------------------
# Figures 12-14: multi-flow scenarios and wired paths


def fig12a_self_contention(r: Report) -> None:
    """Self-contention: two flows of one algorithm, the second starting
    30 s late.  PropRate and BBR share near-fairly (late/early ratio near
    1); CUBIC's late flow gets roughly a quarter."""
    down, up = isp_pair("A", "stationary", 120.0)
    lines = [f"{'Algorithm':10s} {'flow1 KB/s':>11s} {'flow2 KB/s':>11s} {'ratio':>7s}"]
    ratios: Dict[str, float] = {}
    factories: Tuple[Tuple[str, Callable[[], CongestionControl]], ...] = (
        ("PropRate", lambda: PropRate(0.080)), ("CUBIC", Cubic), ("BBR", Bbr),
    )
    for name, factory in factories:
        first, second = self_contention(factory, down, up, name=name)
        ratio = second.throughput / max(1e-9, first.throughput)
        ratios[name] = ratio
        lines.append(
            f"{name:10s} {first.throughput_kbps:11.1f} "
            f"{second.throughput_kbps:11.1f} {ratio:7.2f}"
        )
    r.emit("fig12a_self_contention", lines)
    r.claim("ratio.PropRate", ratios["PropRate"], ">", 0.5)
    r.claim("ratio.BBR", ratios["BBR"], ">", 0.5)
    r.claim("ratio.CUBIC<PropRate", ratios["CUBIC"], "<", ratios["PropRate"])
    r.claim("ratio.CUBIC", ratios["CUBIC"], "<", 0.7)


def fig12b_vs_cubic(r: Report) -> None:
    """Contention against CUBIC: PR(H) contends reasonably, PR(L) keeps a
    smaller but non-zero share, BBR is less aggressive than CUBIC."""
    down, up = isp_pair("A", "stationary", 120.0)
    lines = [f"{'Algorithm':8s} {'algo KB/s':>10s} {'CUBIC KB/s':>11s} {'share':>7s}"]
    shares: Dict[str, float] = {}
    factories: Tuple[Tuple[str, Callable[[], CongestionControl]], ...] = (
        ("PR(H)", lambda: PropRate(0.080)),
        ("PR(L)", lambda: PropRate(0.020)),
        ("BBR", Bbr),
    )
    for name, factory in factories:
        flows = contention_vs_cubic(factory, down, up, cubic_first=True, name=name)
        algo, cubic = flows[name], flows["cubic"]
        share = algo.throughput / max(1e-9, algo.throughput + cubic.throughput)
        shares[name] = share
        lines.append(
            f"{name:8s} {algo.throughput_kbps:10.1f} "
            f"{cubic.throughput_kbps:11.1f} {share:7.2f}"
        )
    r.emit("fig12b_vs_cubic", lines)
    r.claim("share.PR(L)", shares["PR(L)"], ">", 0.02)
    r.claim("share.PR(H)>PR(L)", shares["PR(H)"], ">", shares["PR(L)"])
    r.claim("share.BBR", shares["BBR"], ">", 0.15)


def _wired_lineup(rtt: float) -> Dict[str, Callable[[], CongestionControl]]:
    # On high-BDP wired paths the buffer-emptied regime is ruinous: each
    # deliberate idle period wastes a full feedback lag (~RTT >> T̄) of a
    # fat pipe.  The latency budgets therefore place every configuration
    # in the buffer-full regime (L_max − RTT = 2·t̄_buff, exactly the
    # Eq. 6 crossover), consistent with the paper's wired results —
    # PR(L) within ~30% of CUBIC — and with §5.4 leaving wired target
    # selection as future work.
    return {
        "CUBIC": Cubic,
        "BBR": Bbr,
        "PR(L)": lambda: PropRate(0.020, lmax=rtt + 0.040),
        "PR(H)": lambda: PropRate(0.080, lmax=rtt + 0.160),
        # §5.4: throughput keeps rising with the target until ~RTT/2.
        "PR(max)": lambda: PropRate(max(0.020, rtt / 2.0), lmax=2.0 * rtt),
    }


def fig13_wired(r: Report) -> None:
    """Inter-continental wired-path throughput for CUBIC, BBR, PR(L),
    PR(H), PR(max) over bottlenecks with the RTTs of the paper's AWS
    endpoints.

    CUBIC saturates the path, PR(L) stays within a modest gap of it,
    PR(max) (t̄_buff grown to about RTT/2) approaches it, and the knob
    still orders throughput.
    """
    table = {
        region: {
            name: wired_path(factory, region=region, duration=12.0, measure_start=4.0)
            for name, factory in _wired_lineup(rtt).items()
        }
        for region, (_rate, rtt, _buf) in WIRED_PATHS.items()
    }
    names = ["CUBIC", "BBR", "PR(L)", "PR(H)", "PR(max)"]
    lines = ["Region " + " ".join(f"{n:>10s}" for n in names) + "   (MB/s)"]
    for region, row in table.items():
        lines.append(
            f"{region:6s} "
            + " ".join(f"{row[n].throughput / 1e6:10.2f}" for n in names)
        )
    r.emit("fig13_wired", lines)
    for region, row in table.items():
        cubic = row["CUBIC"].throughput
        rate = WIRED_PATHS[region][0]
        r.claim(f"{region}.tput.CUBIC>0.7xrate", cubic, ">", 0.7 * rate)
        r.claim(f"{region}.tput.PR(L)>0.45xCUBIC", row["PR(L)"].throughput, ">",
                0.45 * cubic)
        r.claim(f"{region}.tput.PR(max)>0.6xCUBIC", row["PR(max)"].throughput, ">",
                0.6 * cubic)
        r.claim(f"{region}.tput.PR(max)>=0.9xPR(L)", row["PR(max)"].throughput,
                ">=", row["PR(L)"].throughput * 0.9)


def fig14_uplink(r: Report) -> None:
    """Downstream performance under a concurrent upstream CUBIC flow
    (congested uplink).

    ACK-clocked downloads stall as their ACK clock dries up, while the
    one-way-delay-driven rate-based senders (PropRate, RRE) keep the
    downlink busy at a healthy delay.
    """
    down, up = isp_pair("A", "stationary", 60.0)
    results = {
        name: uplink_congestion(
            factory, down, up, duration=DURATION, measure_start=MEASURE_START,
            name=name,
        )[name]
        for name, factory in paper_algorithms().items()
    }
    r.emit("fig14_uplink", [flow_row(name, res) for name, res in results.items()])
    pr_h, rre, cubic = results["PR(H)"], results["RRE"], results["CUBIC"]
    best = max(res.throughput for res in results.values())
    r.claim("tput.PR(H)>0.4xbest", pr_h.throughput, ">", 0.4 * best)
    r.claim("tput.RRE>0.4xbest", rre.throughput, ">", 0.4 * best)
    r.claim("tput.PR(H)>10xCUBIC", pr_h.throughput, ">", 10 * cubic.throughput)
    r.claim("delay.PR(H)_s", pr_h.delay.mean, "<", 0.150)
