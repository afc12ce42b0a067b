"""Duplex path wiring: hosts on either side of a bottleneck pair.

The evaluation topology is the Cellsim one: a sender-side host, a forward
(downlink) bottleneck, a receiver, and a reverse (uplink) bottleneck for
the ACK stream.  Several flows may share the same path; packets are
demultiplexed to their endpoints by ``flow_id``.

Both directions may independently be trace-driven cellular links or
constant-rate wired links, which covers every scenario in the paper:

* Figures 7–11: cellular downlink + cellular uplink.
* Figure 13: wired both ways with per-region RTTs.
* Figure 14: cellular downlink with a CUBIC upload saturating the uplink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.link import CellularLink, Link, WiredLink
from repro.sim.packet import Packet
from repro.sim.queues import CoDelQueue, DropTailQueue, DEFAULT_BUFFER_PACKETS
from repro.traces.trace import Trace

Sink = Callable[[Packet], None]


@dataclass
class LinkConfig:
    """One direction of a path.

    Exactly one of ``trace`` (cellular) or ``rate`` (wired, bytes/s) must
    be set.  ``prop_delay`` is the one-way propagation delay of this
    direction; the paper's emulation uses 20 ms per direction.
    """

    trace: Optional[Trace] = None
    rate: Optional[float] = None
    prop_delay: float = 0.020
    buffer_packets: int = DEFAULT_BUFFER_PACKETS
    aqm: str = "droptail"  # or "codel"
    codel_target: float = 0.005
    codel_interval: float = 0.100

    def validate(self) -> None:
        if (self.trace is None) == (self.rate is None):
            raise ValueError("set exactly one of trace or rate")
        if self.aqm not in ("droptail", "codel"):
            raise ValueError(f"unknown AQM {self.aqm!r}")


@dataclass
class PathConfig:
    """Both directions of a duplex path."""

    downlink: LinkConfig = field(default_factory=LinkConfig)
    uplink: LinkConfig = field(default_factory=LinkConfig)


class DuplexPath:
    """A shared bidirectional bottleneck pair with per-flow demux.

    Hosts register per-flow sinks with :meth:`attach_flow`, then inject
    packets with :meth:`send_forward` (data direction) and
    :meth:`send_reverse` (ACK direction).  Drops are counted per flow.
    """

    def __init__(self, sim: Simulator, config: PathConfig) -> None:
        self.sim = sim
        self.config = config
        config.downlink.validate()
        config.uplink.validate()
        self._forward_sinks: Dict[int, Sink] = {}
        self._reverse_sinks: Dict[int, Sink] = {}
        self.forward_drops: Dict[int, int] = {}
        self.reverse_drops: Dict[int, int] = {}
        self.forward_link = self._build_link(
            config.downlink, self._deliver_forward, "downlink"
        )
        self.reverse_link = self._build_link(
            config.uplink, self._deliver_reverse, "uplink"
        )

    # ------------------------------------------------------------------
    def _build_link(self, cfg: LinkConfig, deliver: Sink, name: str) -> Link:
        def on_drop(packet: Packet, _name: str = name) -> None:
            drops = (
                self.forward_drops if _name == "downlink" else self.reverse_drops
            )
            drops[packet.flow_id] = drops.get(packet.flow_id, 0) + 1

        if cfg.aqm == "codel":
            queue: DropTailQueue = CoDelQueue(
                capacity=cfg.buffer_packets,
                target=cfg.codel_target,
                interval=cfg.codel_interval,
                on_drop=on_drop,
            )
        else:
            queue = DropTailQueue(capacity=cfg.buffer_packets, on_drop=on_drop)

        if cfg.trace is not None:
            return CellularLink(
                self.sim,
                cfg.trace,
                queue,
                prop_delay=cfg.prop_delay,
                on_deliver=deliver,
                name=name,
            )
        assert cfg.rate is not None
        return WiredLink(
            self.sim,
            cfg.rate,
            queue,
            prop_delay=cfg.prop_delay,
            on_deliver=deliver,
            name=name,
        )

    # ------------------------------------------------------------------
    def attach_flow(
        self,
        flow_id: int,
        forward_sink: Sink,
        reverse_sink: Sink,
    ) -> None:
        """Register the endpoints of one flow.

        ``forward_sink`` receives packets that traversed the downlink
        (the receiver); ``reverse_sink`` receives packets that traversed
        the uplink (the sender, consuming ACKs).
        """
        if flow_id in self._forward_sinks:
            raise ValueError(f"flow {flow_id} already attached")
        self._forward_sinks[flow_id] = forward_sink
        self._reverse_sinks[flow_id] = reverse_sink
        self.forward_drops.setdefault(flow_id, 0)
        self.reverse_drops.setdefault(flow_id, 0)

    def send_forward(self, packet: Packet) -> bool:
        """Inject a packet in the data direction; False if dropped."""
        return self.forward_link.enqueue(packet)

    def send_reverse(self, packet: Packet) -> bool:
        """Inject a packet in the ACK direction; False if dropped."""
        return self.reverse_link.enqueue(packet)

    def _deliver_forward(self, packet: Packet) -> None:
        sink = self._forward_sinks.get(packet.flow_id)
        if sink is not None:
            sink(packet)

    def _deliver_reverse(self, packet: Packet) -> None:
        sink = self._reverse_sinks.get(packet.flow_id)
        if sink is not None:
            sink(packet)

    # ------------------------------------------------------------------
    @property
    def min_rtt(self) -> float:
        """Propagation-only round-trip time of the path."""
        return self.config.downlink.prop_delay + self.config.uplink.prop_delay
