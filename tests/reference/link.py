"""The reference cellular link.

:class:`ScalarCellularLink` is the one-opportunity-per-event,
one-event-per-delivered-packet link the batched
:class:`~repro.sim.link.CellularLink` must be bit-identical to
(DESIGN.md §9); differential tests install it with :func:`scalar_links`.
"""

from __future__ import annotations

from functools import partial
from unittest import mock

import repro.sim.network
from repro.obs import LINK_RECOVER
from repro.sim.link import CellularLink
from repro.traces.trace import OPPORTUNITY_BYTES


class ScalarCellularLink(CellularLink):
    """Reference link: each heap event consumes exactly one delivery
    opportunity and every served packet gets its own delivery event, so
    there are no batch boundaries to observe."""

    def _serve(self) -> None:
        fired = self._service_event
        self._service_event = None
        if self._outage_open:
            self._outage_open = False
            tr = self._tracer
            if tr is not None:
                tr.emit(LINK_RECOVER, self.sim.now, link=self.name,
                        queued=len(self.queue))
        self._index += 1
        budget = OPPORTUNITY_BYTES
        served_any = False
        while True:
            head = self.queue.peek()
            if head is None or head.size > budget:
                break
            packet = self.queue.pop(self.sim.now)
            if packet is None:
                break
            budget -= packet.size
            served_any = True
            self.delivered_packets += 1
            self.delivered_bytes += packet.size
            if self.on_deliver is not None:
                self.sim.schedule(
                    self._prop_delay, partial(self.on_deliver, packet))
        if not served_any:
            # CoDel may drop everything it dequeues; a truly empty queue
            # simply wastes the opportunity.
            self.wasted_opportunities += 1
        if len(self.queue) > 0:
            self._arm_service(reuse=fired)


def scalar_links():
    """Context manager: every :class:`~repro.sim.network.DuplexPath`
    built inside the block gets :class:`ScalarCellularLink` for its
    trace-driven links."""
    return mock.patch.object(
        repro.sim.network, "CellularLink", ScalarCellularLink)
