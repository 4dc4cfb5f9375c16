"""Figure 5a: the initial virtual-space partitioning and the client
drift, rendered as ASCII maps.

The paper's Fig. 5a is the setup diagram: the 10x10 zone grid, its
initial assignment to the five server nodes, and the main directions of
client movement during the simulation.  We render the assignment plus
the client densities the Fig. 5 campaign's scenario driver allocates
before and after the drift.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..dve import ZoneGrid
from ..scenarios.campaign import Campaign
from .fig5def import FIG5_CAMPAIGN, zone_counts

__all__ = ["render_assignment_map", "render_density_map", "render_fig5a"]

#: Density glyphs from empty to packed.
_GLYPHS = " .:-=+*#%@"


def render_assignment_map(grid: ZoneGrid) -> str:
    """The zone -> node assignment (row bands), one digit per zone."""
    lines = ["Initial zone -> node assignment (digit = node index + 1):"]
    for row in range(grid.rows):
        cells = [
            str(grid.initial_node_of(grid.zone_at(col, row)) + 1)
            for col in range(grid.cols)
        ]
        lines.append("  " + " ".join(cells))
    return "\n".join(lines)


def render_density_map(counts: np.ndarray, title: str) -> str:
    """Client density per zone as a glyph heat map."""
    counts = np.asarray(counts)
    peak = max(1, counts.max())
    lines = [f"{title} (peak={peak} clients/zone):"]
    for row in counts:
        glyphs = [
            _GLYPHS[min(len(_GLYPHS) - 1, int(v / peak * (len(_GLYPHS) - 1)))]
            for v in row
        ]
        lines.append("  " + " ".join(glyphs))
    return "\n".join(lines)


def render_fig5a(
    campaign: Campaign = FIG5_CAMPAIGN, drift_time: Optional[float] = None
) -> str:
    """The full Figure-5a panel: assignment + densities at t=0 and at
    ``drift_time`` (default: the end of the campaign's scenario)."""
    spec = campaign.scenario
    if drift_time is None:
        drift_time = spec.duration
    grid = ZoneGrid(spec.grid_cols, spec.grid_rows, spec.nodes)
    parts = [
        "Figure 5a: virtual space partitioning and client movement",
        "",
        render_assignment_map(grid),
        "",
        render_density_map(zone_counts(campaign, 0.0), "Client density at t=0 (uniform)"),
        "",
        render_density_map(
            zone_counts(campaign, drift_time),
            f"Client density at t={drift_time:g}s (corner clustering)",
        ),
    ]
    return "\n".join(parts)
