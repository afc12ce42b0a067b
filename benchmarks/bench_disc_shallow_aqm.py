"""§6 discussion: shallow buffers and CoDel AQM.

The paper argues PropRate's aggressiveness is tunable where BBR's is
not: with a shallow bottleneck buffer, a high target buffer delay causes
overflow losses like BBR/CUBIC, but *reducing the target* makes PropRate
as gentle as — or gentler than — CUBIC.  Under CoDel, large buffers act
shallow and the same tunability applies.
"""

from repro.core.proprate import PropRate
from repro.experiments.scenarios import shallow_buffer
from repro.tcp.congestion import Bbr, Cubic
from repro.traces.presets import isp_trace

from _report import emit

DURATION = 20.0
SHALLOW_PACKETS = 50  # ~65 ms of buffering at the trace's mean rate


def test_discussion_shallow_buffers_and_aqm():
    down = isp_trace("A", "stationary", duration=60.0)
    rows = {}
    for label, factory, aqm, buf in (
        ("CUBIC/shallow", Cubic, "droptail", SHALLOW_PACKETS),
        ("BBR/shallow", Bbr, "droptail", SHALLOW_PACKETS),
        ("PR(80ms)/shallow", lambda: PropRate(0.080), "droptail", SHALLOW_PACKETS),
        ("PR(10ms)/shallow", lambda: PropRate(0.010), "droptail", SHALLOW_PACKETS),
        ("CUBIC/codel", Cubic, "codel", 2000),
        ("PR(10ms)/codel", lambda: PropRate(0.010), "codel", 2000),
    ):
        rows[label] = shallow_buffer(
            factory, down, buffer_packets=buf, aqm=aqm,
            duration=DURATION, measure_start=4.0, name=label,
        )
    lines = [
        f"{'config':18s} {'tput KB/s':>10s} {'mean ms':>8s} {'p95 ms':>8s} "
        f"{'drops':>7s} {'rtx':>7s}"
    ]
    for label, r in rows.items():
        lines.append(
            f"{label:18s} {r.throughput_kbps:10.1f} {r.delay.mean_ms:8.1f} "
            f"{r.delay.p95_ms:8.1f} {r.bottleneck_drops:7d} {r.retransmissions:7d}"
        )
    emit("disc_shallow_aqm", lines)

    # A too-high target overflows a shallow buffer, like BBR/CUBIC ...
    assert rows["CUBIC/shallow"].bottleneck_drops > 0
    # ... but reducing the target delay reduces PropRate's losses —
    # the tunability BBR lacks (§6).
    assert (
        rows["PR(10ms)/shallow"].bottleneck_drops
        <= rows["PR(80ms)/shallow"].bottleneck_drops
    )
    assert (
        rows["PR(10ms)/shallow"].bottleneck_drops
        < rows["CUBIC/shallow"].bottleneck_drops
    )
    # CoDel keeps CUBIC's delay far below the raw drop-tail bufferbloat.
    assert rows["CUBIC/codel"].delay.mean < 0.300
