"""PropRate's operating point and in-flight cap, recomputed from scratch.

:class:`~repro.core.proprate.PropRate` keeps the last parameter set and
the last in-flight cap and recomputes either only when an input
differs.  :func:`proprate_oracle` hooks ``on_ack`` and ``on_tick`` of
every PropRate instance (subclasses included) and, at each call, derives
both from the live inputs the way the algorithm did before it kept
anything — so a memo that misses an invalidation fails at the first ACK
or tick that shows it.
"""

from contextlib import contextmanager
from unittest import mock

from repro.core.model import DEFAULT_LMAX_HEADROOM, params_for_threshold
from repro.core.proprate import PROBE_BURST, PropRate


def reference_params(cc):
    """The parameters ``on_ack`` must hold once it has run, from the
    inputs as they stand when it is entered (the threshold feedback and
    the adaptive target move only after the derivation)."""
    rtt = cc._base_rtt()
    if rtt is None or rtt <= 0:
        return cc.params  # no derivation: the previous set stands
    lmax = cc._effective_lmax(rtt)
    if lmax <= rtt:
        lmax = rtt + DEFAULT_LMAX_HEADROOM
    threshold = max(min(cc.feedback.threshold, lmax - rtt), 1e-4)
    return params_for_threshold(
        threshold, rtt, min(cc.target_buffer_delay, lmax - rtt), lmax)


def reference_cap(cc):
    """``on_tick``'s in-flight cap in packets, or None when the tick
    returns before computing one."""
    host = cc.host
    if host is None or cc.params is None:
        return None
    rho = cc._rho_hold
    rtt = cc._base_rtt()
    if rho is None or rtt is None:
        return None
    srtt = host.srtt
    rtt_for_cap = max(rtt, srtt) if srtt is not None else rtt
    cap_seconds = rtt_for_cap + 4.0 * max(
        cc.params.threshold, cc.target_buffer_delay)
    return max(4 * PROBE_BURST, int(cap_seconds * rho / host.packet_bytes))


class OracleCounts:
    def __init__(self):
        self.acks = 0
        self.capped_ticks = 0       # ticks that computed a cap
        self.zeroed_ticks = 0       # ticks on which the cap bit
        self.params_seen = set()    # distinct parameter sets held
        self.caps_seen = set()
        self.targets_seen = set()


@contextmanager
def proprate_oracle():
    """Check every PropRate ACK and tick inside the block; yields the
    :class:`OracleCounts` of what was checked."""
    counts = OracleCounts()
    real_on_ack = PropRate.on_ack
    real_on_tick = PropRate.on_tick

    def on_ack(self, sample):
        expected = reference_params(self)
        real_on_ack(self, sample)
        assert self.params == expected, (
            f"t={sample.now}: params {self.params} != {expected}")
        counts.acks += 1
        counts.params_seen.add(self.params)
        counts.targets_seen.add(self.target_buffer_delay)

    def on_tick(self, now):
        cap = reference_cap(self)
        rate_before = self.pacing_rate
        real_on_tick(self, now)
        if cap is None:
            assert self.pacing_rate == rate_before
            return
        assert self._cap_packets == cap, (
            f"t={now}: cap {self._cap_packets} != {cap}")
        bites = self.host.inflight >= cap
        assert self.pacing_rate == (0.0 if bites else rate_before)
        counts.capped_ticks += 1
        counts.zeroed_ticks += bites
        counts.caps_seen.add(cap)

    with mock.patch.object(PropRate, "on_ack", on_ack), \
            mock.patch.object(PropRate, "on_tick", on_tick):
        yield counts
