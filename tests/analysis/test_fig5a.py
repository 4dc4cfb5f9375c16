"""Tests for the Figure-5a map renderers."""

import numpy as np

from repro.analysis import (
    FIG5_QUICK_CAMPAIGN,
    render_assignment_map,
    render_density_map,
    render_fig5a,
)
from repro.dve import ZoneGrid


class TestAssignmentMap:
    def test_row_bands(self):
        out = render_assignment_map(ZoneGrid(10, 10, 5))
        rows = out.splitlines()[1:]
        assert len(rows) == 10
        # First two rows are node 1, last two node 5 (Fig. 5a).
        assert rows[0].split() == ["1"] * 10
        assert rows[1].split() == ["1"] * 10
        assert rows[-1].split() == ["5"] * 10


class TestDensityMap:
    def test_glyph_scaling(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 0] = 100
        out = render_density_map(counts, "t")
        lines = out.splitlines()
        assert "peak=100" in lines[0]
        assert lines[1].split()[0] == "@"  # the peak cell
        # Empty cells render as spaces (stripped rows are shorter).
        assert len(lines[2].strip()) < 5

    def test_zero_everywhere(self):
        out = render_density_map(np.zeros((2, 2), dtype=int), "empty")
        assert "peak=1" in out  # avoids div-by-zero


class TestFig5a:
    def test_full_render(self):
        out = render_fig5a(FIG5_QUICK_CAMPAIGN, drift_time=400)
        assert "Figure 5a" in out
        assert "assignment" in out
        assert "t=0" in out and "t=400s" in out

    def test_drift_visibly_concentrates(self):
        """The after-map's peak far exceeds the before-map's."""
        out = render_fig5a()
        import re

        peaks = [int(m) for m in re.findall(r"peak=(\d+)", out)]
        assert len(peaks) == 2
        before, after = peaks
        assert after > before * 2
