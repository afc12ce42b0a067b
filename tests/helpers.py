"""Shared test utilities: fake hosts, ACK-sample synthesis, and a bursty
raw-packet workload.

Congestion-control unit tests drive algorithms directly through their
event API against a :class:`FakeHost`, without spinning up the full
simulator.  :class:`AckFeeder` fabricates internally consistent
:class:`~repro.tcp.congestion.base.AckSample` streams (monotone ACK
numbers, cumulative delivered counts, quantised receiver timestamps).

The reference implementations differential tests hold the shipped code
to live in :mod:`tests.reference`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.network import DuplexPath, LinkConfig, PathConfig
from repro.sim.packet import (
    DATA_PACKET_BYTES,
    MSS,
    make_ack_packet,
    make_data_packet,
)
from repro.tcp.congestion.base import AckSample, CongestionControl
from repro.traces.presets import isp_trace
from repro.traces.trace import Trace


def isp_traces(isp: str, mode: str, duration: float):
    """The (downlink, uplink) pair of a Table-2 preset."""
    return (isp_trace(isp, mode, duration=duration),
            isp_trace(isp, mode, duration=duration, direction="uplink"))


def quantized_outage_trace() -> Trace:
    """Dense ms-quantised schedule with a 200 ms outage: same-instant
    opportunity runs (multi-packet groups) plus an idle fast-forward."""
    times = np.arange(0.0, 1.0, 0.0004)
    times = np.floor(times * 1000.0) / 1000.0
    times = times[(times < 0.4) | (times >= 0.6)]
    return Trace(times, duration=1.0, name="quantized")


def drive_bursts(observe=None):
    """Seven 40-packet bursts, 300 ms apart, over the quantized-outage
    trace both ways, every data arrival answered with an ACK: the queues
    drain between bursts, so the links serve multi-opportunity batches.

    ``observe(sim, path)`` runs once the path is built (to attach an
    auditor).  Returns ``(sim, path, arrivals)`` with ``arrivals`` the
    ``(time, end, seq-or-ack)`` log of both endpoints.
    """
    sim = Simulator()
    trace = quantized_outage_trace()
    path = DuplexPath(sim, PathConfig(
        downlink=LinkConfig(trace=trace, prop_delay=0.02, buffer_packets=512),
        uplink=LinkConfig(trace=trace, prop_delay=0.02, buffer_packets=512),
    ))
    if observe is not None:
        observe(sim, path)
    arrivals = []

    def on_data(packet):
        arrivals.append((sim.now, "data", packet.seq))
        path.send_reverse(
            make_ack_packet(0, packet.seq + 1, sim.now, packet.tsval))

    path.attach_flow(
        0, on_data, lambda p: arrivals.append((sim.now, "ack", p.ack)))
    state = {"seq": 0}

    def refill():
        now = sim.now
        seq = state["seq"]
        for i in range(40):
            path.send_forward(make_data_packet(0, seq + i, now))
        state["seq"] = seq + 40
        if now + 0.3 < 2.0:
            sim.schedule(0.3, refill)

    sim.schedule_at(0.05, refill)
    sim.run(until=3.0)
    return sim, path, arrivals


class FakeHost:
    """Minimal HostView implementation for unit tests."""

    def __init__(
        self,
        srtt: Optional[float] = 0.05,
        min_rtt: float = 0.04,
        inflight: int = 0,
    ) -> None:
        self.now = 0.0
        self._srtt = srtt
        self._min_rtt = min_rtt
        self._inflight = inflight

    @property
    def mss(self) -> int:
        return MSS

    @property
    def packet_bytes(self) -> int:
        return DATA_PACKET_BYTES

    @property
    def srtt(self) -> Optional[float]:
        return self._srtt

    @srtt.setter
    def srtt(self, value: Optional[float]) -> None:
        self._srtt = value

    @property
    def min_rtt(self) -> float:
        return self._min_rtt

    @min_rtt.setter
    def min_rtt(self, value: float) -> None:
        self._min_rtt = value

    @property
    def inflight(self) -> int:
        return self._inflight

    @inflight.setter
    def inflight(self, value: int) -> None:
        self._inflight = value


class AckFeeder:
    """Generate a consistent ACK stream for a bound algorithm.

    Each :meth:`ack` call advances time, the cumulative ACK and the
    delivered counter, synthesising the RTT/one-way-delay/receiver-ts
    fields from the supplied link model.
    """

    def __init__(
        self,
        cc: CongestionControl,
        host: Optional[FakeHost] = None,
        base_owd: float = 0.02,
        ts_granularity: float = 0.01,
    ) -> None:
        self.host = host or FakeHost()
        self.cc = cc
        if cc.host is None:
            cc.bind(self.host)
            cc.on_connection_start()
        self.base_owd = base_owd
        self.ts_granularity = ts_granularity
        self.ack_no = 0
        self.delivered = 0
        self.lost = 0

    def _receiver_ts(self, now: float) -> float:
        g = self.ts_granularity
        return int(now / g) * g if g > 0 else now

    def ack(
        self,
        dt: float = 0.01,
        newly_acked: int = 1,
        newly_sacked: int = 0,
        rtt: Optional[float] = None,
        queue_delay: float = 0.0,
        is_dupack: bool = False,
        in_recovery: bool = False,
        inflight: Optional[int] = None,
        newly_lost: int = 0,
    ) -> AckSample:
        """Advance by ``dt`` and deliver one ACK to the algorithm."""
        self.host.now += dt
        now = self.host.now
        self.ack_no += newly_acked
        self.delivered += newly_acked + newly_sacked + (1 if is_dupack and not newly_sacked else 0)
        self.lost += newly_lost
        if inflight is not None:
            self.host.inflight = inflight
        owd = self.base_owd + queue_delay
        sample = AckSample(
            now=now,
            ack=self.ack_no,
            newly_acked=newly_acked,
            newly_sacked=newly_sacked,
            delivered_total=self.delivered,
            rtt=rtt if rtt is not None else (self.host.min_rtt + queue_delay),
            one_way_delay=self._receiver_ts(now) - (now - owd),
            receiver_ts=self._receiver_ts(now),
            inflight=self.host.inflight,
            is_dupack=is_dupack,
            in_recovery=in_recovery,
            lost_total=self.lost,
        )
        self.cc.on_ack(sample)
        return sample

    def run(self, n: int, **kwargs) -> None:
        """Deliver ``n`` ACKs with identical parameters."""
        for _ in range(n):
            self.ack(**kwargs)
