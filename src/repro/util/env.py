"""The ``REPRO_*`` environment switches and the one parser they share.

Every process-wide default the experiment entry points fall back to when
a setting is left at ``None`` is read here, so "what counts as off" has
one definition (see the "Run options" table in ``docs/api.md``).
"""

from __future__ import annotations

import os
from typing import Optional

#: Invariant auditing (:mod:`repro.debug`) for runs with ``audit=None``.
AUDIT_ENV = "REPRO_AUDIT"

#: Directory the auditor's flight-recorder dumps go to.
AUDIT_DIR_ENV = "REPRO_AUDIT_DIR"

#: Telemetry (:mod:`repro.obs`) for runs with ``telemetry=None``:
#: ``1``/``true``/``yes``/``on`` or a path prefix.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Sampling spec for tracers built without an explicit ``sampling=``.
SAMPLE_ENV = "REPRO_TELEMETRY_SAMPLE"

#: Phase profiling for traced runs with ``profile=None``.
PROFILE_ENV = "REPRO_PROFILE"

#: Spellings (case-insensitive, stripped) that leave a switch off.
_OFF = frozenset(("", "0", "false", "no", "off"))


def env_flag(name: str) -> Optional[str]:
    """The stripped value of switch ``name``, or ``None`` when it is off."""
    value = os.environ.get(name, "").strip()
    return None if value.lower() in _OFF else value
