"""Experiment drivers and table/figure renderers for the evaluation."""

from .fig4 import render_fig4, run_fig4
from .fig5bc import (
    FreezeSweepResult,
    SweepConfig,
    SweepPoint,
    render_fig5b,
    render_fig5c,
    run_freeze_sweep,
)
from .fig5def import (
    FIG5_CAMPAIGN,
    FIG5_QUICK_CAMPAIGN,
    Fig5Result,
    LoadBalancingComparison,
    render_comparison,
    render_fig5d,
    render_fig5e,
    render_fig5f,
    run_fig5def,
)
from .chart import render_chart
from .export import fig4_to_csv, series_to_csv, sweep_to_csv
from .fig5a import render_assignment_map, render_density_map, render_fig5a
from .report import render_kv, render_series, render_table

__all__ = [
    "run_fig4",
    "render_fig4",
    "SweepConfig",
    "SweepPoint",
    "FreezeSweepResult",
    "run_freeze_sweep",
    "render_fig5b",
    "render_fig5c",
    "run_fig5def",
    "FIG5_CAMPAIGN",
    "FIG5_QUICK_CAMPAIGN",
    "Fig5Result",
    "LoadBalancingComparison",
    "render_fig5d",
    "render_fig5e",
    "render_fig5f",
    "render_comparison",
    "render_table",
    "render_series",
    "render_kv",
    "series_to_csv",
    "sweep_to_csv",
    "fig4_to_csv",
    "render_fig5a",
    "render_assignment_map",
    "render_density_map",
    "render_chart",
]
