"""The canonical algorithm line-up of the paper's evaluation (§5).

Factories for every algorithm in Table 3, plus the three PropRate
configurations PR(L)/PR(M)/PR(H) (t̄_buff = 20/40/80 ms) used throughout
the figures, and ``PR(A)`` — the §6 adaptive-target extension
(:class:`~repro.core.adaptive.AdaptivePropRate`, CLI name
``adaptive-proprate``) entered as a first-class shootout algorithm.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.experiments.options import RunOptions
from repro.traces.trace import Trace

from repro.core.adaptive import AdaptivePropRate
from repro.core.proprate import PropRate
from repro.tcp.congestion import (
    Bbr,
    Cubic,
    Ledbat,
    NewReno,
    Pcc,
    Proteus,
    Rre,
    Sprout,
    Vegas,
    Verus,
    Westwood,
)
from repro.tcp.congestion.base import CongestionControl

CcFactory = Callable[[], CongestionControl]

#: PropRate configurations (paper §5.1).
PR_TARGETS = {"PR(L)": 0.020, "PR(M)": 0.040, "PR(H)": 0.080}

#: Line-up name of the adaptive-target PropRate (§6); accepts CcSpec
#: params (``target_buffer_delay``, ``min_target``).
ADAPTIVE_NAME = "PR(A)"


def proprate_factory(target: float, **kwargs) -> CcFactory:
    """A factory for PropRate at a fixed t̄_buff."""
    return lambda: PropRate(target_buffer_delay=target, **kwargs)


def paper_algorithms() -> Dict[str, CcFactory]:
    """Name → factory for the full Figure-7 line-up, in table order."""
    algorithms: Dict[str, CcFactory] = {
        name: proprate_factory(target) for name, target in PR_TARGETS.items()
    }
    algorithms[ADAPTIVE_NAME] = AdaptivePropRate
    algorithms.update(
        {
            "CUBIC": Cubic,
            "NewReno": NewReno,
            "Vegas": Vegas,
            "Westwood": Westwood,
            "LEDBAT": Ledbat,
            "BBR": Bbr,
            "Sprout": Sprout,
            "PCC": Pcc,
            "Verus": Verus,
            "PROTEUS": Proteus,
            "RRE": Rre,
        }
    )
    return algorithms


def run_shootout(
    downlink_trace: Trace,
    uplink_trace: Optional[Trace] = None,
    names: Optional[Sequence[str]] = None,
    duration: float = 40.0,
    measure_start: float = 5.0,
    n_jobs: int = 1,
    run_options: Optional[RunOptions] = None,
):
    """Run the Figure-7 line-up over one trace; name → :class:`FlowResult`.

    Each algorithm is an independent simulation, so ``n_jobs`` fans the
    line-up out over worker processes; results are identical to the
    serial run and returned in line-up order.  ``run_options`` goes to
    :func:`repro.experiments.parallel.run_batch` as is.
    """
    # Imported here: the parallel layer resolves CcSpecs through
    # paper_algorithms(), so the import must not be circular.
    from repro.experiments.parallel import CcSpec, RunSpec, collect, run_batch

    lineup = list(names) if names is not None else list(paper_algorithms())
    specs = [
        RunSpec(
            cc=CcSpec(name),
            downlink=downlink_trace,
            uplink=uplink_trace,
            duration=duration,
            measure_start=measure_start,
            name=name,
        )
        for name in lineup
    ]
    results = collect(run_batch(specs, n_jobs=n_jobs, run_options=run_options))
    return dict(zip(lineup, results))
