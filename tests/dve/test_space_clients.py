"""Tests for the zone grid and client population/movement model."""

import numpy as np
import pytest

from repro.des import RngRegistry
from repro.dve import ClientPopulation, MovementConfig, ZoneGrid


@pytest.fixture
def grid():
    return ZoneGrid(10, 10, 5)


def make_pop(grid, n=2000, seed=1, **kw):
    cfg = MovementConfig(**kw) if kw else MovementConfig()
    return ClientPopulation(grid, n, RngRegistry(seed).stream("pop"), cfg)


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

    def test_position_binning(self, grid):
        assert grid.zone_of_position(3.7, 8.2).zone_id == grid.zone_at(3, 8).zone_id
        # Clamped at the boundary.
        assert grid.zone_of_position(11.0, -1.0).zone_id == grid.zone_at(9, 0).zone_id

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            ZoneGrid(10, 10, 3)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ZoneGrid(0, 10, 5)

    def test_zone_center(self, grid):
        assert grid.zone_at(2, 3).center == (2.5, 3.5)


class TestClientPopulation:
    def test_initially_roughly_uniform(self, grid):
        pop = make_pop(grid, n=10_000)
        counts = pop.zone_counts()
        assert counts.sum() == 10_000
        assert counts.min() > 50  # ~100 +- sampling noise
        assert counts.max() < 160

    def test_total_is_conserved(self, grid):
        pop = make_pop(grid, n=5000)
        for _ in range(100):
            pop.step(1.0)
        assert pop.zone_counts().sum() == 5000

    def test_corner_drift(self, grid):
        """After the travel time, corner zones gained, middle lost."""
        pop = make_pop(grid, n=10_000)
        before = pop.zone_counts()
        for _ in range(700):
            pop.step(1.0)
        after = pop.zone_counts()
        # Up-left and down-right corner regions gained.
        assert after[:2, :2].sum() > before[:2, :2].sum() * 2
        assert after[-2:, -2:].sum() > before[-2:, -2:].sum() * 2
        # Middle band drained.
        assert after[3:7, :].sum() < before[3:7, :].sum() * 0.8

    def test_positions_stay_in_world(self, grid):
        pop = make_pop(grid, n=1000)
        for _ in range(200):
            pop.step(5.0)
        assert (pop.positions >= 0).all()
        assert (pop.positions[:, 0] < grid.cols).all()
        assert (pop.positions[:, 1] < grid.rows).all()

    def test_deterministic_given_seed(self, grid):
        a = make_pop(grid, n=500, seed=7)
        b = make_pop(grid, n=500, seed=7)
        for _ in range(10):
            a.step(1.0)
            b.step(1.0)
        assert np.allclose(a.positions, b.positions)

    def test_non_movers_stay_near_home(self, grid):
        pop = make_pop(grid, n=5000)
        start = pop.positions.copy()
        for _ in range(600):
            pop.step(1.0)
        nonmovers = ~pop.movers
        drift = np.linalg.norm(pop.positions[nonmovers] - start[nonmovers], axis=1)
        assert np.median(drift) < 2.0  # jitter only

    def test_count_in_zone(self, grid):
        pop = make_pop(grid, n=1000)
        counts = pop.zone_counts()
        assert counts.shape == (grid.rows, grid.cols)
        assert counts.sum() == 1000

    def test_empty_population_rejected(self, grid):
        with pytest.raises(ValueError):
            make_pop(grid, n=0)
