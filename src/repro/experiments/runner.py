"""Run congestion-control flows over simulated paths.

This is the Cellsim-equivalent experiment loop: build a duplex path from
traces (or wired rates), attach one or more TCP flows, run the event
loop, and reduce each flow's delivery record to the numbers the paper's
figures plot — average throughput and mean / 95th-percentile one-way
packet delay over a measurement window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import repro.obs as obs
from repro.debug import InvariantAuditor, InvariantViolation, audit_enabled
from repro.metrics.collector import DeliveryCollector
from repro.tcp.application import Application
from repro.metrics.stats import DelaySummary, delay_summary
from repro.sim.engine import Simulator
from repro.sim.network import DuplexPath, LinkConfig, PathConfig
from repro.sim.queues import DEFAULT_BUFFER_PACKETS
from repro.tcp.congestion.base import CongestionControl
from repro.tcp.receiver import TcpReceiver, DEFAULT_TS_GRANULARITY
from repro.tcp.sender import TcpSender
from repro.traces.trace import Trace

CcFactory = Callable[[], CongestionControl]

#: Paper's emulation propagation delay (per direction).
DEFAULT_PROP_DELAY = 0.020

#: Default wired return path used when no uplink trace is supplied
#: (bytes/second) — fast enough never to be the bottleneck.
DEFAULT_UPLINK_RATE = 12.5e6


@dataclass
class FlowSpec:
    """One flow in an experiment.

    ``direction`` is "down" for a server→mobile transfer (data rides the
    downlink) or "up" for an upload (data rides the uplink — the
    Figure-14 scenario).  ``measure_start``/``measure_end`` override the
    experiment-wide measurement window for this flow.  ``delayed_ack``
    runs this flow's receiver with RFC 1122 delayed ACKs (robustness
    ablation).
    """

    cc_factory: CcFactory
    name: str = ""
    start: float = 0.0
    direction: str = "down"
    total_segments: Optional[int] = None
    measure_start: Optional[float] = None
    measure_end: Optional[float] = None
    delayed_ack: bool = False
    application: Optional[Application] = None

    def __post_init__(self) -> None:
        if self.direction not in ("down", "up"):
            raise ValueError("direction must be 'down' or 'up'")


@dataclass
class FlowResult:
    """Reduced outcome of one flow.

    ``collector`` and ``sender`` expose the live simulation objects for
    in-process inspection; they hold the whole simulator graph and are
    therefore not picklable.  Results that cross a process boundary (the
    :mod:`repro.experiments.parallel` layer) carry ``None`` in both —
    see :meth:`detached`.
    """

    name: str
    throughput: float               # bytes/second over the window
    delay: DelaySummary             # one-way packet delay stats
    delivered_bytes: int
    bottleneck_drops: int
    retransmissions: int
    rto_count: int
    measure_start: float
    measure_end: float
    collector: Optional[DeliveryCollector] = field(repr=False, default=None)
    sender: Optional[TcpSender] = field(repr=False, default=None)
    #: Bottleneck capacity (bytes/s) over the measurement window of this
    #: flow's data direction, when the topology can provide it.
    capacity: Optional[float] = None
    #: Telemetry metrics snapshot for this flow (``None`` when telemetry
    #: was off).  Per-flow keys are prefix-stripped; shared run-level
    #: keys keep their ``run.`` prefix.
    metrics: Optional[Dict[str, Any]] = None

    def detached(self) -> "FlowResult":
        """A copy without the unpicklable simulation handles."""
        if self.collector is None and self.sender is None:
            return self
        return replace(self, collector=None, sender=None)

    def summary(self) -> tuple:
        """The reduced numbers as a comparable tuple.

        This is the determinism contract of the batch layer: two runs of
        the same spec — serial or parallel, any job count, any
        completion order — must produce bit-identical summaries.  The
        CI determinism gate and the equivalence tests compare exactly
        this tuple.

        With telemetry enabled the tuple gains one trailing element:
        the canonical metrics rendering (wall-clock ``timing`` keys
        excluded), which is itself deterministic for a given spec.
        With telemetry off the tuple is identical to pre-telemetry
        builds.
        """
        base = (
            self.name,
            self.throughput,
            self.delay.mean,
            self.delay.p95,
            self.delivered_bytes,
            self.bottleneck_drops,
            self.retransmissions,
            self.rto_count,
            self.measure_start,
            self.measure_end,
            self.capacity,
        )
        if self.metrics:
            base += (obs.canonical_metrics(self.metrics),)
        return base

    @property
    def throughput_kbps(self) -> float:
        """Throughput in the paper's units (KB/s, K = 1000)."""
        return self.throughput / 1000.0

    @property
    def utilization(self) -> Optional[float]:
        """Goodput as a fraction of the bottleneck capacity, if known.

        Meaningful for a flow alone on its bottleneck; flows sharing a
        link each report their own fraction of the *total* capacity.
        """
        if self.capacity is None or self.capacity <= 0:
            return None
        return self.throughput / self.capacity


def canonical_summary(value: Any) -> Any:
    """A :meth:`FlowResult.summary` rendered NaN-comparable.

    The determinism gates compare summary tuples with ``==``, but a
    starved flow (no deliveries in its window) carries NaN delay
    statistics — and ``nan != nan``, so two bit-identical runs would
    falsely diverge wherever any flow starves.  This maps every NaN
    (recursively, through tuples and lists) to a sentinel, so equality
    of canonical summaries means "bit-identical up to NaN positions
    matching".  Any real numeric difference still compares unequal.
    """
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, tuple):
        return tuple(canonical_summary(v) for v in value)
    if isinstance(value, list):
        return [canonical_summary(v) for v in value]
    return value


def cellular_path_config(
    downlink_trace: Trace,
    uplink_trace: Optional[Trace] = None,
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    prop_delay: float = DEFAULT_PROP_DELAY,
    aqm: str = "droptail",
    uplink_rate: float = DEFAULT_UPLINK_RATE,
) -> PathConfig:
    """The paper's emulation topology: trace-driven bottlenecks, 2,000-
    packet drop-tail buffers, 20 ms propagation per direction."""
    downlink = LinkConfig(
        trace=downlink_trace,
        prop_delay=prop_delay,
        buffer_packets=buffer_packets,
        aqm=aqm,
    )
    if uplink_trace is not None:
        uplink = LinkConfig(
            trace=uplink_trace,
            prop_delay=prop_delay,
            buffer_packets=buffer_packets,
            aqm="droptail",
        )
    else:
        uplink = LinkConfig(
            rate=uplink_rate,
            prop_delay=prop_delay,
            buffer_packets=buffer_packets,
        )
    return PathConfig(downlink=downlink, uplink=uplink)


def wired_path_config(
    rate: float,
    rtt: float,
    buffer_packets: int = 400,
) -> PathConfig:
    """A symmetric wired path with the given bottleneck rate and RTT."""
    prop = rtt / 2.0
    return PathConfig(
        downlink=LinkConfig(rate=rate, prop_delay=prop, buffer_packets=buffer_packets),
        uplink=LinkConfig(rate=rate, prop_delay=prop, buffer_packets=buffer_packets),
    )


def _link_meta(cfg: LinkConfig, duration: float) -> Dict[str, Any]:
    """JSON-ready description of one link for the ``run.start`` event."""
    if cfg.trace is not None:
        rate = cfg.trace.capacity_bytes(0.0, duration) / max(duration, 1e-9)
        kind = "cellular"
    else:
        rate = cfg.rate
        kind = "wired"
    return {
        "kind": kind,
        "rate": rate,
        "prop_delay": cfg.prop_delay,
        "buffer_packets": cfg.buffer_packets,
    }


def run_experiment(
    path_config: PathConfig,
    flows: List[FlowSpec],
    duration: float,
    measure_start: float = 5.0,
    measure_end: Optional[float] = None,
    ts_granularity: float = DEFAULT_TS_GRANULARITY,
    audit: Optional[bool] = None,
    telemetry: Optional[Any] = None,
    sampling: Optional[str] = None,
    profile: Optional[Any] = None,
) -> List[FlowResult]:
    """Run ``flows`` over one shared path and reduce the results.

    ``measure_start``/``measure_end`` bound the statistics window
    (defaults: 5 s warm-up, end of run); per-flow overrides win.

    ``audit``, ``telemetry``, ``sampling`` and ``profile`` are the
    per-run observers, documented once on
    :class:`repro.experiments.options.RunOptions` (``telemetry`` here
    also accepts a live :class:`~repro.obs.Tracer` and ``profile`` a
    :class:`~repro.obs.PhaseProfiler`).  All are observation-only: with
    them off, results are bit-identical to builds without them; with
    telemetry on, each :class:`FlowResult` additionally carries a
    ``metrics`` snapshot.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")

    with obs.observing(telemetry, sampling, profile) as (tracer, profiler):
        harness = ExperimentHarness(
            path_config,
            flows,
            duration,
            measure_start=measure_start,
            measure_end=measure_end,
            ts_granularity=ts_granularity,
            audit=audit,
            tracer=tracer,
            profiler=profiler,
        )
        return harness.finalize()


class ExperimentHarness:
    """A fully built experiment graph whose event loop can be stepped.

    This is the build phase of :func:`run_experiment` factored out so
    the control-plane environment (:mod:`repro.env`) can interleave the
    event loop with policy decisions: construct, then either
    :meth:`finalize` in one go (what :func:`run_experiment` does) or
    call :meth:`advance` repeatedly — consecutive ``advance`` calls
    compose exactly (the :class:`~repro.sim.engine.Simulator` contract),
    so a run advanced in increments is bit-identical to one advanced in
    a single call.

    Construction order (simulator, path, auditor, per-flow receiver/
    sender/attachment, start events, telemetry samplers) is the
    determinism-sensitive part: it fixes the event heap's insertion
    sequence.  Do not reorder it.

    The built graph is full of reference cycles (pending events hold
    bound methods of the objects that hold the simulator, links call
    back into the path that owns them, sender and controller point at
    each other).  :meth:`close` cuts them, so a finished run is freed
    by reference counting instead of waiting for a full garbage
    collection; :meth:`finalize` and every failure path call it
    (DESIGN.md, "Run lifetime and memory").
    """

    def __init__(
        self,
        path_config: PathConfig,
        flows: List[FlowSpec],
        duration: float,
        measure_start: float = 5.0,
        measure_end: Optional[float] = None,
        ts_granularity: float = DEFAULT_TS_GRANULARITY,
        audit: Optional[bool] = None,
        tracer: Optional[obs.Tracer] = None,
        profiler: Optional[obs.PhaseProfiler] = None,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.path_config = path_config
        self.duration = duration
        self.measure_start = measure_start
        self.measure_end = measure_end
        self._tracer = tracer
        self._profiler = profiler
        self._results: Optional[List[FlowResult]] = None
        self._closed = False

        self._wall_start = perf_counter() if tracer is not None else 0.0
        self.sim = Simulator()
        self.path = DuplexPath(self.sim, path_config)
        self._harnessed: List[tuple] = []

        forward_audit = reverse_audit = None
        self.auditor = InvariantAuditor(self.sim) if audit_enabled(audit) else None
        if self.auditor is not None:
            forward_audit, reverse_audit = self.auditor.attach_path(self.path)

        for flow_id, spec in enumerate(flows):
            name = spec.name or f"flow{flow_id}"
            collector = DeliveryCollector()
            cc = spec.cc_factory()
            # Endpoints inject straight into the links' enqueue, the
            # work DuplexPath.send_forward/send_reverse would forward to.
            forward = self.path.forward_link.enqueue
            reverse = self.path.reverse_link.enqueue
            if spec.direction == "down":
                data_sink, ack_sink = forward, reverse
            else:
                data_sink, ack_sink = reverse, forward
            receiver = TcpReceiver(
                self.sim,
                flow_id,
                send_ack=ack_sink,
                ts_granularity=ts_granularity,
                on_data=collector.on_data,
                delayed_ack=spec.delayed_ack,
            )
            sender = TcpSender(
                self.sim,
                flow_id,
                cc,
                send_packet=data_sink,
                total_segments=spec.total_segments,
                application=spec.application,
            )
            if spec.direction == "down":
                self.path.attach_flow(
                    flow_id, receiver.receive, sender.on_ack_packet)
            else:
                self.path.attach_flow(
                    flow_id, sender.on_ack_packet, receiver.receive)
            self.sim.schedule_at(spec.start, sender.start)
            if self.auditor is not None:
                self.auditor.attach_flow(
                    sender,
                    receiver,
                    data_link=(
                        forward_audit if spec.direction == "down" else reverse_audit
                    ),
                )
            self._harnessed.append((spec, name, collector, sender))

        self._samplers: list = []
        if tracer is not None:
            tracer.emit(
                obs.RUN_START,
                0.0,
                duration=duration,
                measure_start=measure_start,
                flows=[
                    {
                        "flow": flow_id,
                        "name": name,
                        "cc": type(sender.cc).__name__,
                        "direction": spec.direction,
                        "start": spec.start,
                    }
                    for flow_id, (spec, name, collector, sender) in enumerate(
                        self._harnessed
                    )
                ],
                links={
                    "downlink": _link_meta(path_config.downlink, duration),
                    "uplink": _link_meta(path_config.uplink, duration),
                },
            )
            from repro.metrics.telemetry import QueueSampler

            for link_name, link in (
                ("downlink", self.path.forward_link),
                ("uplink", self.path.reverse_link),
            ):
                self._samplers.append(
                    QueueSampler(
                        self.sim,
                        link.queue,
                        interval=obs.QUEUE_SAMPLE_INTERVAL,
                        name=link_name,
                        tracer=tracer,
                    )
                )

    # -- flow accessors -------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def sender(self, flow_id: int = 0) -> TcpSender:
        return self._harnessed[flow_id][3]

    def collector(self, flow_id: int = 0) -> DeliveryCollector:
        return self._harnessed[flow_id][2]

    # -- event loop -----------------------------------------------------
    def advance(self, until: float) -> float:
        """Run the event loop up to simulated time ``until`` (clamped to
        the run duration).  Returns the simulator clock afterwards."""
        if self._results is not None:
            raise RuntimeError("harness already finalized")
        if self._closed:
            raise RuntimeError("harness closed")
        until = min(until, self.duration)
        try:
            self.sim.run(until=until)
        except Exception as exc:
            self._fail(exc)
            raise
        return self.sim.now

    def _fail(self, exc: Exception) -> None:
        """A run raised: dump the flight recorder for anything but an
        invariant violation (which dumped its own), then close."""
        if self.auditor is not None and not isinstance(exc, InvariantViolation):
            self.auditor.record_exception(exc)
        self.close()

    def close(self) -> None:
        """Cut the run graph's reference cycles.  Idempotent.

        Each cut lives in the class that made the reference: the
        simulator drops its pending events and audit ring, the path its
        links' callbacks into it, each link its bound methods of itself,
        each sender its controller's back-reference, and each telemetry
        sampler its timer.  No event runs
        afterwards; counters, collectors and senders stay readable.
        """
        if self._closed:
            return
        self._closed = True
        for sampler in self._samplers:
            sampler.stop()
        self.sim.close()
        self.path.close()
        for _spec, _name, _collector, sender in self._harnessed:
            sender.close()

    def finalize(self) -> List[FlowResult]:
        """Run any remaining events, close out telemetry, and reduce
        each flow to a :class:`FlowResult`.  Idempotent; closes the
        harness (:meth:`close`) as its last step."""
        if self._results is not None:
            return self._results
        if self._closed:
            raise RuntimeError("harness closed")
        sim, path, tracer = self.sim, self.path, self._tracer
        try:
            sim.run(until=self.duration)
            if self.auditor is not None:
                self.auditor.final_check()
        except Exception as exc:
            self._fail(exc)
            raise

        snapshot: Optional[Dict[str, Any]] = None
        if tracer is not None:
            metrics = tracer.metrics
            metrics.counter("run.engine.events").add(sim.events_processed)
            metrics.counter("run.engine.compactions").add(sim.compactions)
            for link_name, link, sampler in (
                ("downlink", path.forward_link, self._samplers[0]),
                ("uplink", path.reverse_link, self._samplers[1]),
            ):
                metrics.gauge(f"run.link.{link_name}.queue_peak").track_max(
                    max(sampler.lengths, default=0))
                batches = getattr(link, "batches_drained", 0)
                if batches:
                    metrics.counter(f"run.link.{link_name}.batches").add(batches)
                    metrics.counter(f"run.link.{link_name}.batched_packets").add(
                        link.batched_packets
                    )
            for flow_id, (spec, name, collector, sender) in enumerate(
                self._harnessed
            ):
                prefix = f"flow{flow_id}."
                metrics.counter(prefix + "retransmits").add(sender.retransmissions)
                metrics.counter(prefix + "spurious_rtx").add(sender.spurious_marks)
                metrics.counter(prefix + "duplicate_data").add(collector.duplicates)
                metrics.counter(prefix + "rtos").add(sender.rto_count)
                metrics.counter(prefix + "acks").add(sender.acks_received)
                metrics.counter(prefix + "segments_sent").add(sender.segments_sent)
                metrics.counter(prefix + "lost_total").add(sender.lost_total)
                close = getattr(sender.cc, "telemetry_close", None)
                if close is not None:
                    close(sim.now)
            metrics.gauge("run.timing.wall_s").set(perf_counter() - self._wall_start)
            snapshot = obs.close_scope(tracer, "run", self._profiler)
            tracer.emit(obs.METRICS, sim.now, scope="run", metrics=snapshot)
            tracer.emit(obs.RUN_END, sim.now, events=sim.events_processed)

        results: List[FlowResult] = []
        for flow_id, (spec, name, collector, sender) in enumerate(self._harnessed):
            start = spec.measure_start if spec.measure_start is not None else max(
                self.measure_start, spec.start
            )
            end = spec.measure_end if spec.measure_end is not None else (
                self.measure_end if self.measure_end is not None else self.duration
            )
            delays = collector.delays(start, end)
            delivered = collector.delivered_bytes(start, end)
            window = max(1e-9, end - start)
            drops: Dict[int, int] = (
                path.forward_drops if spec.direction == "down" else path.reverse_drops
            )
            link_cfg = (
                self.path_config.downlink
                if spec.direction == "down"
                else self.path_config.uplink
            )
            if end <= start:
                capacity = None
            elif link_cfg.trace is not None:
                capacity = link_cfg.trace.capacity_bytes(start, end) / window
            else:
                capacity = link_cfg.rate
            results.append(
                FlowResult(
                    name=name,
                    throughput=delivered / window,
                    delay=delay_summary(delays),
                    delivered_bytes=delivered,
                    bottleneck_drops=drops.get(flow_id, 0),
                    retransmissions=sender.retransmissions,
                    rto_count=sender.rto_count,
                    measure_start=start,
                    measure_end=end,
                    collector=collector,
                    sender=sender,
                    capacity=capacity,
                    metrics=(
                        obs.flow_metrics_view(snapshot, flow_id)
                        if snapshot is not None
                        else None
                    ),
                )
            )
        self._results = results
        self.close()
        return results


def run_single_flow(
    cc_factory: CcFactory,
    downlink_trace: Trace,
    uplink_trace: Optional[Trace] = None,
    duration: float = 40.0,
    measure_start: float = 5.0,
    name: str = "",
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    prop_delay: float = DEFAULT_PROP_DELAY,
    aqm: str = "droptail",
    ts_granularity: float = DEFAULT_TS_GRANULARITY,
    audit: Optional[bool] = None,
    telemetry: Optional[Any] = None,
    sampling: Optional[str] = None,
    profile: Optional[Any] = None,
) -> FlowResult:
    """Convenience wrapper: one downlink flow over a cellular path."""
    config = cellular_path_config(
        downlink_trace,
        uplink_trace,
        buffer_packets=buffer_packets,
        prop_delay=prop_delay,
        aqm=aqm,
    )
    results = run_experiment(
        config,
        [FlowSpec(cc_factory=cc_factory, name=name)],
        duration=duration,
        measure_start=measure_start,
        ts_granularity=ts_granularity,
        audit=audit,
        telemetry=telemetry,
        sampling=sampling,
        profile=profile,
    )
    return results[0]
