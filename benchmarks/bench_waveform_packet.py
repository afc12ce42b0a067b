"""Packet-level sawtooth: Figures 1-2 from the *full* simulator.

The fluid-model bench validates Eqs. 1-8 in the idealised system; this
one closes the remaining gap by extracting the buffer-delay waveform
from a real packet-level run (TCP stack, timestamps, pacing ticks, ACK
path) on a constant-rate bottleneck and comparing its geometry to the
model's predictions.  Quantisation, estimator lag and the NFL make the
packet-level waveform rougher — the assertions use correspondingly wider
bands than the fluid test's few-percent ones.
"""

import pytest

from repro.core.model import derive_parameters
from repro.core.proprate import PropRate
from repro.experiments.runner import cellular_path_config
from repro.metrics.telemetry import QueueSampler, sawtooth_summary
from repro.sim.engine import Simulator
from repro.sim.network import DuplexPath
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.traces.generator import constant_rate_trace

from _report import emit

RATE = 1.5e6
RTT = 0.040
DURATION = 30.0


def _run(target, enable_feedback):
    sim = Simulator()
    trace = constant_rate_trace(RATE, DURATION + 1.0)
    path = DuplexPath(sim, cellular_path_config(trace))
    recv = TcpReceiver(sim, 0, send_ack=path.send_reverse)
    cc = PropRate(target, enable_feedback=enable_feedback)
    sender = TcpSender(sim, 0, cc, send_packet=path.send_forward)
    path.attach_flow(0, recv.receive, sender.on_ack_packet)
    sampler = QueueSampler(sim, path.forward_link.queue, interval=0.005)
    sender.start()
    sim.run(until=DURATION)
    times, _ = sampler.as_arrays()
    delays = sampler.buffer_delays(service_rate=RATE)
    return sawtooth_summary(times, delays, discard=0.4)


def _rows(label, summary, params):
    return (
        f"{label:22s} Dmax={summary.dmax * 1000:6.1f} "
        f"(model {params.predicted_dmax * 1000:5.1f}) "
        f"Dmin={summary.dmin * 1000:6.1f} "
        f"(model {params.predicted_dmin * 1000:5.1f}) "
        f"avg={summary.average * 1000:6.1f} "
        f"(target {params.target_tbuff * 1000:5.1f}) "
        f"empty={summary.empty_fraction:5.2f} cycles={summary.n_cycles}"
    )


def test_packet_level_waveforms():
    results = {
        # The NFL is disabled so the raw regulation loop is measured
        # against the open-loop model (the NFL deliberately moves T
        # away from the derivation to cancel measurement bias).
        "buffer-full t=80ms": (_run(0.080, False), derive_parameters(0.080, RTT)),
        "buffer-emptied t=20ms": (_run(0.020, False), derive_parameters(0.020, RTT)),
    }
    lines = [_rows(k, s, p) for k, (s, p) in results.items()]
    emit("waveform_packet", lines)

    full, full_params = results["buffer-full t=80ms"]
    emptied, emptied_params = results["buffer-emptied t=20ms"]

    # Buffer-full regime: the packet-level waveform lands within ~20%
    # of the closed-form geometry (measured ~7% in practice) and the
    # buffer essentially never empties.
    assert full.n_cycles >= 5
    assert full.empty_fraction < 0.10
    assert full.dmax == pytest.approx(full_params.predicted_dmax, rel=0.25)
    assert full.dmin == pytest.approx(full_params.predicted_dmin, rel=0.35)
    assert full.average == pytest.approx(full_params.target_tbuff, rel=0.25)
    assert full.dmax > full.dmin

    # Buffer-emptied regime: the buffer genuinely empties periodically
    # and the average sits near the (small) target.
    assert emptied.empty_fraction > 0.05
    assert emptied.average < 2.5 * emptied_params.target_tbuff
    assert emptied.n_cycles >= 5
