"""The workload primitives: pure, validated, and describable."""

import numpy as np
import pytest

from repro.scenarios import (
    BackgroundCycle,
    ConnectionMix,
    CornerDrift,
    DependencyChain,
    DiurnalSine,
    FlashCrowd,
    HotSet,
    RotatingHotspot,
    ScenarioSpec,
    UniformZones,
    ZipfZones,
)
from repro.dve import ZoneGrid

#: The campaign scale (4x4 zones, 4 nodes) and Fig. 5's (10x10, 5 nodes).
GRID4 = ZoneGrid(4, 4, 4)
GRID10 = ZoneGrid(10, 10, 5)


class TestLoadShapes:
    def test_flash_envelope(self):
        flash = FlashCrowd(at=10, peak=2.0, ramp=4, hold=6, decay=10)
        assert flash.factor(0) == 1.0
        assert flash.factor(9.99) == 1.0
        assert flash.factor(12) == pytest.approx(2.0)  # mid-ramp
        assert flash.factor(14) == pytest.approx(3.0)  # peak
        assert flash.factor(18) == pytest.approx(3.0)  # holding
        assert flash.factor(25) == pytest.approx(2.0)  # mid-decay
        assert flash.factor(31) == 1.0

    def test_flash_zero_ramp_is_step(self):
        flash = FlashCrowd(at=5, peak=1.0, ramp=0, hold=2, decay=1)
        assert flash.factor(5.0) == pytest.approx(2.0)

    def test_diurnal_swing(self):
        d = DiurnalSine(period=40, amp=0.5)
        assert d.factor(0) == pytest.approx(1.0)
        assert d.factor(10) == pytest.approx(1.5)  # quarter period: peak
        assert d.factor(30) == pytest.approx(0.5)  # three quarters: trough
        assert d.factor(40) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowd(peak=-1)
        with pytest.raises(ValueError):
            FlashCrowd(ramp=-0.1)
        with pytest.raises(ValueError):
            DiurnalSine(period=0)
        with pytest.raises(ValueError):
            DiurnalSine(amp=1.5)


class TestZoneWeights:
    def test_uniform_sums_to_one(self):
        w = UniformZones().weights(GRID4, 3.0)
        assert w.sum() == pytest.approx(1.0)
        assert len(set(w)) == 1

    def test_zipf_ranks_by_zone_id(self):
        w = ZipfZones(s=1.2).weights(ZoneGrid(2, 4, 4), 0.0)
        assert w.sum() == pytest.approx(1.0)
        assert all(w[i] > w[i + 1] for i in range(7))
        # Rank-s power law, exactly.
        assert w[3] / w[0] == pytest.approx(1.0 / 4**1.2)

    def test_rotating_hotspot_travels_and_normalises(self):
        rot = RotatingHotspot(period=40, amp=0.5)
        w0 = rot.weights(ZoneGrid(2, 4, 4), 0.0)
        assert w0.sum() == pytest.approx(1.0)
        assert int(np.argmax(w0)) == 0
        # A quarter period later the crest sits a quarter of the way round.
        assert int(np.argmax(rot.weights(ZoneGrid(2, 4, 4), 10.0))) == 2
        # One full period restores the field exactly.
        assert rot.weights(ZoneGrid(2, 4, 4), 40.0) == pytest.approx(w0)

    def test_corner_drift_progresses(self):
        drift = CornerDrift(travel=100, mass=0.6)
        w0 = drift.weights(GRID4, 0.0)
        assert len(set(w0)) == 1  # uniform at start
        w_end = drift.weights(GRID4, 100.0)
        assert w_end[0] == pytest.approx(w_end[15])
        assert w_end[0] + w_end[15] == pytest.approx(0.6 + 0.4 * 2 / 16)
        assert w_end.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfZones(s=0)
        with pytest.raises(ValueError):
            RotatingHotspot(amp=1.2)
        with pytest.raises(ValueError):
            CornerDrift(mass=-0.1)
        with pytest.raises(ValueError):
            CornerDrift(band=0)
        with pytest.raises(ValueError):
            CornerDrift(band=1.5)


class TestCornerDrift:
    """The Fig. 5 clustering: rows 3-6 of a 10x10 grid drain into the
    2x2 corner regions of node1 and node5."""

    FIG5 = CornerDrift(travel=250, mass=0.6, band=0.4)

    def grid_weights(self, drift, grid, t):
        return drift.weights(grid, t).reshape(grid.rows, grid.cols)

    @pytest.mark.parametrize("t", [0.0, 60.0, 250.0, 900.0])
    def test_total_is_conserved(self, t):
        assert self.FIG5.weights(GRID10, t).sum() == pytest.approx(1.0)

    def test_corner_regions_gain(self):
        before = self.grid_weights(self.FIG5, GRID10, 0.0)
        after = self.grid_weights(self.FIG5, GRID10, 250.0)
        for region in (np.s_[:2, :2], np.s_[-2:, -2:]):
            assert after[region].sum() > before[region].sum() * 2
            # Spread evenly over the region's four zones.
            assert len(set(after[region].ravel().tolist())) == 1
        assert after[:2, :2].sum() == pytest.approx(after[-2:, -2:].sum())

    def test_middle_band_drains(self):
        before = self.grid_weights(self.FIG5, GRID10, 0.0)
        after = self.grid_weights(self.FIG5, GRID10, 250.0)
        assert after[3:7].sum() == pytest.approx(before[3:7].sum() * 0.4)
        # Rows outside the band, corners aside, keep their weight.
        assert after[2] == pytest.approx(before[2])
        assert after[7] == pytest.approx(before[7])
        # Per node (two rows each): the paper's corner-heavy shape.
        per_node = after.reshape(5, 20).sum(axis=1) * 10_000
        assert per_node == pytest.approx([3200, 1400, 800, 1400, 3200])

    def test_deterministic(self):
        a = self.FIG5.weights(GRID10, 123.4)
        b = CornerDrift(travel=250, mass=0.6, band=0.4).weights(GRID10, 123.4)
        assert np.array_equal(a, b)

    def test_region_is_derived_from_grid(self):
        """A corner region is the rows one node owns, squared: 1x1 on
        4x4/4 nodes, 2x2 on 10x10/5, 4x4 on 8x8/2."""
        drift = CornerDrift(travel=10, mass=1.0)
        for grid, k in ((GRID4, 1), (GRID10, 2), (ZoneGrid(8, 8, 2), 4)):
            w = self.grid_weights(drift, grid, 10.0)
            assert w[:k, :k].sum() == pytest.approx(0.5)
            assert w[-k:, -k:].sum() == pytest.approx(0.5)
            assert np.count_nonzero(w) == 2 * k * k

    def test_default_band_drains_every_zone(self):
        """The default reproduces the all-zone drain bit for bit:
        uniform ``(1 - p)/n`` everywhere plus ``p/2`` on each corner."""
        drift = CornerDrift(travel=180, mass=0.7)
        for t in (0.0, 37.0, 180.0, 240.0):
            p = min(1.0, t / 180) * 0.7
            expected = np.full(16, (1.0 - p) / 16)
            expected[0] += p / 2.0
            expected[15] += p / 2.0
            assert np.array_equal(drift.weights(GRID4, t), expected)


class TestBackgroundCycle:
    def test_staggered_phases(self):
        bg = BackgroundCycle(base=0.8, amp=0.4, period=30)
        # Node 0 at t=period/4 is at its peak; node 2 is anti-phase.
        assert bg.demand(0, 4, 7.5) == pytest.approx(1.2)
        assert bg.demand(2, 4, 7.5) == pytest.approx(0.4)

    def test_demand_clamped_at_zero(self):
        bg = BackgroundCycle(base=0.1, amp=0.5, period=30)
        assert bg.demand(0, 4, 22.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BackgroundCycle(base=-0.1)
        with pytest.raises(ValueError):
            BackgroundCycle(period=0)


class TestMixAndChain:
    def test_expected_churn(self):
        mix = ConnectionMix(churn=0.1, long_lived=0.6)
        assert mix.expected_churn(1000) == pytest.approx(40.0)

    def test_chain_shifts_downstream_and_renormalises(self):
        chain = DependencyChain(gain=0.5, lag=5, stride=2)
        w = np.array([0.7, 0.1, 0.1, 0.1])
        lagged = np.array([1.0, 0.0, 0.0, 0.0])
        out = chain.apply(w, lagged)
        assert out.sum() == pytest.approx(1.0)
        assert out[2] > out[3]  # zone 0's lagged load landed on zone 2

    def test_chain_no_history_is_identity(self):
        chain = DependencyChain()
        w = np.array([0.5, 0.5])
        assert chain.apply(w, None) is w


class TestScenarioSpec:
    def test_offered_composes_shapes(self):
        spec = ScenarioSpec(
            clients=100,
            shapes=[FlashCrowd(at=0, peak=1.0, ramp=0, hold=100, decay=0),
                    DiurnalSine(period=40, amp=0.5)],
        )
        # flash x2, diurnal peak x1.5 at t=10.
        assert spec.offered(10.0) == 300

    def test_grid_must_split_across_nodes(self):
        with pytest.raises(ValueError):
            ScenarioSpec(grid_rows=3, nodes=2)

    def test_describe_lists_every_primitive(self):
        spec = ScenarioSpec(
            zones=ZipfZones(s=1.1),
            background=BackgroundCycle(),
            mix=ConnectionMix(),
            chain=DependencyChain(),
            hotset=HotSet(),
            shapes=[FlashCrowd()],
        )
        text = spec.describe()
        for directive in ("clients", "load flash", "zones zipf",
                          "background cycle", "mix", "chain depend",
                          "dirty hotset"):
            assert directive in text, directive
