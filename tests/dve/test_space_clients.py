"""Tests for the zone grid and the Fig. 5 client population: the
count-space corner drift the scenario driver allocates."""

import numpy as np
import pytest

from repro.analysis import FIG5_CAMPAIGN
from repro.analysis.fig5def import zone_counts
from repro.dve import ZoneGrid
from repro.scenarios import ScenarioSpec


@pytest.fixture
def grid():
    return ZoneGrid(10, 10, 5)


class TestZoneGrid:
    def test_hundred_zones(self, grid):
        assert len(grid) == 100

    def test_zone_ids_cover_grid(self, grid):
        ids = {z.zone_id for z in grid.zones}
        assert ids == set(range(100))

    def test_zone_at(self, grid):
        z = grid.zone_at(3, 7)
        assert (z.col, z.row) == (3, 7)
        assert z.zone_id == 73
        with pytest.raises(ValueError):
            grid.zone_at(10, 0)

    def test_initial_assignment_is_row_bands(self, grid):
        """Fig. 5a: node k owns rows 2k..2k+1."""
        for zone in grid.zones:
            assert grid.initial_node_of(zone) == zone.row // 2
        for i in range(5):
            assert sum(grid.initial_node_of(z) == i for z in grid.zones) == 20

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            ZoneGrid(10, 10, 3)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ZoneGrid(0, 10, 5)


class TestClientPopulation:
    """Fig. 5's 10,000 clients: 60% of rows 3-6 drain into the 2x2
    corner regions over 250 s."""

    def test_initially_roughly_uniform(self):
        counts = zone_counts(FIG5_CAMPAIGN, 0.0)
        assert counts.sum() == 10_000
        assert (counts == 100).all()

    def test_total_is_conserved(self):
        for t in (1.0, 100.0, 250.0, 900.0):
            assert zone_counts(FIG5_CAMPAIGN, t).sum() == 10_000

    def test_corner_drift(self):
        """After the travel time, corner regions gained, middle lost."""
        before = zone_counts(FIG5_CAMPAIGN, 0.0)
        after = zone_counts(FIG5_CAMPAIGN, 700.0)
        # Up-left and down-right corner regions gained.
        assert after[:2, :2].sum() > before[:2, :2].sum() * 2
        assert after[-2:, -2:].sum() > before[-2:, -2:].sum() * 2
        # Middle band drained.
        assert after[3:7, :].sum() < before[3:7, :].sum() * 0.8
        # Per node (two rows each): the paper's corner-heavy shape.
        per_node = after.reshape(5, 20).sum(axis=1)
        assert per_node.tolist() == [3200, 1400, 800, 1400, 3200]

    def test_positions_stay_in_world(self, grid):
        for t in (0.0, 125.0, 900.0):
            counts = zone_counts(FIG5_CAMPAIGN, t)
            assert counts.shape == (grid.rows, grid.cols)
            assert (counts >= 0).all()

    def test_deterministic_given_seed(self):
        """The allocation is a pure function of time: no seed enters it."""
        a = zone_counts(FIG5_CAMPAIGN.with_overrides(seed=7), 120.0)
        b = zone_counts(FIG5_CAMPAIGN.with_overrides(seed=8), 120.0)
        assert np.array_equal(a, b)

    def test_non_movers_stay_near_home(self):
        """Rows outside the band keep their clients, except the corner
        regions that receive the movers."""
        before = zone_counts(FIG5_CAMPAIGN, 0.0)
        after = zone_counts(FIG5_CAMPAIGN, 600.0)
        assert np.array_equal(after[2, :], before[2, :])
        assert np.array_equal(after[7, :], before[7, :])
        assert np.array_equal(after[:2, 2:], before[:2, 2:])
        assert np.array_equal(after[-2:, :-2], before[-2:, :-2])

    def test_count_in_zone(self, grid):
        counts = zone_counts(FIG5_CAMPAIGN, 50.0)
        assert counts.shape == (grid.rows, grid.cols)
        assert counts.sum() == 10_000

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(clients=0)
