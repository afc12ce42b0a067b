"""Export experiment outcomes to CSV and JSON.

The benchmarks print and persist plain-text tables; this module produces
machine-readable artifacts for anyone who wants to re-plot the figures:
a CSV per figure, and the deterministic JSON artifact that ``repro grid
--out`` and ``repro fluid --out`` write.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Sequence, Union

PathLike = Union[str, Path]


def flow_results_to_csv(
    results: Dict[str, "FlowResult"],
    path: PathLike,
) -> Path:
    """One row per algorithm: the Figure-7-style scatter data."""
    path = Path(path)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "algorithm",
                "throughput_kbps",
                "mean_delay_ms",
                "p95_delay_ms",
                "p99_delay_ms",
                "drops",
                "retransmissions",
                "rtos",
            ]
        )
        for name, result in results.items():
            writer.writerow(
                [
                    name,
                    f"{result.throughput_kbps:.2f}",
                    f"{result.delay.mean_ms:.2f}",
                    f"{result.delay.p95_ms:.2f}",
                    f"{result.delay.p99 * 1000:.2f}",
                    result.bottleneck_drops,
                    result.retransmissions,
                    result.rto_count,
                ]
            )
    return path


def frontier_to_csv(points: Sequence["FrontierPoint"], path: PathLike) -> Path:
    """One row per sweep target: the Figure-10 frontier data."""
    path = Path(path)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["target_tbuff_ms", "throughput_kbps", "mean_delay_ms", "p95_delay_ms"]
        )
        for point in points:
            writer.writerow(
                [
                    f"{point.target_tbuff * 1000:.1f}",
                    f"{point.throughput_kbps:.2f}",
                    f"{point.mean_delay_ms:.2f}",
                    f"{point.p95_delay_ms:.2f}",
                ]
            )
    return path


def report_to_json(report: Dict[str, object], path: PathLike) -> Path:
    """Persist a report as a deterministic JSON artifact.

    ``report`` is a ``to_dict()`` of
    :class:`repro.experiments.contention_grid.GridReport` or
    :class:`repro.fluid.engine.FluidReport` — already JSON-safe
    (non-finite floats rendered as ``null``) and free of wall-clock
    data.  Keys are sorted and floats repr-encoded by the standard
    encoder, so two runs of the same grid or fluid scenario produce
    byte-identical files (the CI determinism gate relies on this).
    """
    path = Path(path)
    payload = json.dumps(
        report, sort_keys=True, indent=2, allow_nan=False
    )
    path.write_text(payload + "\n", encoding="ascii")
    return path
