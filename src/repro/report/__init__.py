"""Result export: CSV/JSON tables and ASCII heatmaps."""

from repro.report.export import (
    flow_results_to_csv,
    frontier_to_csv,
    report_to_json,
)
from repro.report.heatmap import (
    render_fluid_towers,
    render_grid_heatmap,
    render_grid_heatmaps,
)

__all__ = [
    "flow_results_to_csv",
    "frontier_to_csv",
    "render_fluid_towers",
    "render_grid_heatmap",
    "render_grid_heatmaps",
    "report_to_json",
]
