"""The reference demux: :class:`DuplexPath` with its flow demultiplexing
as the two Python methods it was before it became one C callable
(``repro.sim._core.Demux``), kept verbatim.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.engine import Simulator
from repro.sim.network import DuplexPath, PathConfig, Sink
from repro.sim.packet import Packet


class ReferenceDuplexPath(DuplexPath):
    """A duplex path whose links deliver to its two demux methods."""

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

    def _deliver_forward(self, packet: Packet) -> None:
        sink = self._forward_sinks.get(packet.flow_id)
        if sink is not None:
            sink(packet)

    def _deliver_reverse(self, packet: Packet) -> None:
        sink = self._reverse_sinks.get(packet.flow_id)
        if sink is not None:
            sink(packet)
