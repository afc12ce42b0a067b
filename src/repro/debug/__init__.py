"""Runtime correctness instrumentation (invariant auditor + recorder).

Enable per call with ``audit=True`` on the experiment entry points, per
process with ``REPRO_AUDIT=1`` (the benchmarks and workers inherit it),
or from the CLI with ``--audit``.  See DESIGN.md, "The audit layer".
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.debug.auditor import AuditConfig, InvariantAuditor, InvariantViolation
from repro.debug.recorder import FlightRecorder
from repro.util.env import AUDIT_ENV, env_flag

__all__ = [
    "AUDIT_ENV",
    "AuditArg",
    "AuditConfig",
    "FlightRecorder",
    "InvariantAuditor",
    "InvariantViolation",
    "audit_enabled",
    "make_auditor",
]

#: What the ``audit=`` knob accepts everywhere: None (defer to the
#: environment), a bool, or an :class:`AuditConfig` with per-scenario
#: band overrides.
AuditArg = Union[None, bool, AuditConfig]


def audit_enabled(audit: AuditArg = None) -> bool:
    """Resolve an ``audit`` knob: explicit wins, else the environment."""
    if isinstance(audit, AuditConfig):
        return audit.enabled
    if audit is not None:
        return bool(audit)
    return env_flag(AUDIT_ENV) is not None


def make_auditor(sim: Any, audit: AuditArg = None) -> Optional[InvariantAuditor]:
    """Build the auditor an ``audit=`` knob asks for (None if disabled).

    Drivers call this instead of constructing :class:`InvariantAuditor`
    directly so an :class:`AuditConfig` override reaches the bands.
    """
    if not audit_enabled(audit):
        return None
    if isinstance(audit, AuditConfig):
        return audit.build(sim)
    return InvariantAuditor(sim)
