"""Discrete-event network simulation substrate (Cellsim equivalent).

This subpackage provides the network substrate the paper's evaluation runs
on: an event loop (:mod:`repro.sim.engine`), packets with TCP options
(:mod:`repro.sim.packet`), finite drop-tail and CoDel queues
(:mod:`repro.sim.queues`), trace-driven cellular links and constant-rate
wired links (:mod:`repro.sim.link`), and duplex path wiring
(:mod:`repro.sim.network`).

The per-packet path of all of these is one C extension, ``_core.c``
(DESIGN.md, "The packet core in C"), built on the first import of this
package and registered as ``repro.sim._core`` before any of its modules
imports it.
"""

from pathlib import Path

from repro.util.cbuild import load_extension

load_extension("repro.sim._core", Path(__file__).with_name("_core.c"))

from repro.sim.engine import Event, Simulator
from repro.sim.link import CellularLink, WiredLink
from repro.sim.network import DuplexPath, PathConfig
from repro.sim.packet import Packet, SackBlock
from repro.sim.queues import CoDelQueue, DropTailQueue

__all__ = [
    "CellularLink",
    "CoDelQueue",
    "DropTailQueue",
    "DuplexPath",
    "Event",
    "Packet",
    "PathConfig",
    "SackBlock",
    "Simulator",
    "WiredLink",
]
