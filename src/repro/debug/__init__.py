"""Runtime correctness instrumentation (invariant auditor + recorder).

Enable per call with ``audit=True`` on the experiment entry points, per
process with ``REPRO_AUDIT=1`` (the benchmarks and workers inherit it),
or from the CLI with ``--audit``.  Audit is on or off; its bands are the
constants of :mod:`repro.debug.auditor`.  See DESIGN.md, "The audit
layer".
"""

from __future__ import annotations

from typing import Optional

from repro.debug.auditor import InvariantAuditor, InvariantViolation
from repro.debug.recorder import FlightRecorder
from repro.util.env import AUDIT_ENV, env_flag

__all__ = [
    "AUDIT_ENV",
    "FlightRecorder",
    "InvariantAuditor",
    "InvariantViolation",
    "audit_enabled",
]


def audit_enabled(audit: Optional[bool] = None) -> bool:
    """Resolve an ``audit`` knob: explicit wins, else the environment."""
    if audit is not None:
        return bool(audit)
    return env_flag(AUDIT_ENV) is not None
