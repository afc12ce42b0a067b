"""Build, cache and load the fluid step kernel (``step.c``).

The kernel is compiled on first use — the first :func:`run_fluid` or
bank call in a process, never at import — and loaded with
:mod:`ctypes`; building and caching are :mod:`repro.util.cbuild`'s,
shared with the packet tier's core.

The structures below mirror ``step.c``'s field for field; every field
is 8 bytes wide, so neither side pads.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.util import cbuild

__all__ = ["Bank", "Cubic", "Fluid", "PropRate", "library", "pointer"]

SOURCE = Path(__file__).with_name("step.c")
COMPILER = cbuild.COMPILER
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
CACHE_DIR = Path(__file__).with_name("__pycache__")

#: ``Bank.law``
LAW_NONE, LAW_PROPRATE, LAW_CUBIC = 0, 1, 2
#: ``fluid_advance`` results
STEP_DONE, STEP_RATES, STEP_LOSS = 0, 1, 2

_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_f64 = ctypes.c_double


def _fields(kind: Any, *names: str) -> list:
    return [(name, kind) for name in names]


class PropRate(ctypes.Structure):
    _fields_ = (
        _fields(_ptr, "rho", "threshold", "kf", "kd", "rho_floor",
                "alpha_fast", "feedback_from", "startup", "drain")
        + _fields(_f64, "alpha_hold")
    )


class Cubic(ctypes.Structure):
    _fields_ = (
        _fields(_ptr, "w", "w_max", "k", "epoch", "ss_growth", "slow_start")
        + _fields(_f64, "c", "min_cwnd", "mss")
    )


class Bank(ctypes.Structure):
    _fields_ = (
        _fields(_i64, "law", "python_rates", "loss_based", "n")
        + _fields(_ptr, "index", "rtt", "last_loss", "loss_epochs", "react")
        + _fields(_i64, "reacted")
        + _fields(_ptr, "state")
    )


class Fluid(ctypes.Structure):
    _fields_ = (
        _fields(_i64, "n_flows", "n_towers", "n_steps", "n_banks")
        + _fields(_f64, "dt", "alpha_ref", "cap_ref_floor", "measure_start",
                  "measure_end")
        + _fields(_ptr, "tower_id", "rtt_steps", "start", "rtt", "active",
                  "measuring")
        + _fields(_i64, "any_measuring")
        + _fields(_ptr, "x", "delivered", "observed", "tb_now",
                  "delivered_bytes", "tb_sum", "tb_time", "tb_max", "cap_sum",
                  "cap", "buffer_bytes", "queue", "cap_ref", "dropped",
                  "arrival", "serve", "share", "tbuff", "srv_cum",
                  "served_sum", "tower_cap_sum", "tower_peak", "arr_hist",
                  "delay_hist", "exit_ptr", "tower_loss_epochs",
                  "overflowing", "banks")
        + _fields(_i64, "step", "phase")
    )


def pointer(array: np.ndarray) -> int:
    """Address of an array's data for a kernel structure field."""
    if not array.flags.c_contiguous:
        raise ValueError("the fluid kernel needs C-contiguous arrays")
    return array.ctypes.data


def library_path(source: bytes) -> Path:
    """Where the library built from ``source`` is cached."""
    return cbuild.cached_path(CACHE_DIR, "fluidstep", source, FLAGS)


def _build() -> Path:
    source = SOURCE.read_bytes()
    return cbuild.build(source, library_path(source), FLAGS,
                        "the fluid step kernel")


_library: Optional[ctypes.CDLL] = None


def library() -> ctypes.CDLL:
    """The loaded kernel, built into the cache first if need be."""
    global _library
    if _library is None:
        lib = ctypes.CDLL(str(_build()))
        lib.fluid_advance.argtypes = [_ptr, _i64]
        lib.fluid_advance.restype = _i64
        lib.bank_rates.argtypes = [_ptr, _f64] + [_ptr] * 5
        lib.bank_rates.restype = None
        lib.bank_overflow.argtypes = [_ptr, _f64, _ptr]
        lib.bank_overflow.restype = _i64
        _library = lib
    return _library
