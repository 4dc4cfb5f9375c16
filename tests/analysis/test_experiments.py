"""Smoke tests for the experiment drivers at reduced scale.

The full-scale runs live in benchmarks/; these check that every driver
produces the right structure and the headline orderings hold even at
small scale.
"""

import pytest

from repro.analysis import (
    FIG5_QUICK_CAMPAIGN,
    SweepConfig,
    render_comparison,
    render_fig4,
    render_fig5b,
    render_fig5c,
    render_fig5d,
    render_fig5e,
    render_fig5f,
    run_fig4,
    run_fig5def,
    run_freeze_sweep,
)
from repro.openarena import Fig4Config


@pytest.fixture(scope="module")
def sweep():
    return run_freeze_sweep(
        SweepConfig(conn_counts=(16, 64), repetitions=1)
    )


@pytest.fixture(scope="module")
def comparison():
    return run_fig5def(FIG5_QUICK_CAMPAIGN)


class TestFig4Driver:
    def test_run_and_render(self):
        res = run_fig4(Fig4Config(warmup=1.0, cooldown=1.0, phase_sweep=(0.0,)))
        out = render_fig4(res)
        assert "Figure 4" in out
        assert "process freeze time" in out
        assert "source" in out and "destination" in out


class TestFig5bcDriver:
    def test_structure(self, sweep):
        assert len(sweep.points) == 2 * 3
        p = sweep.point(16, "iterative")
        assert p.freeze_time > 0
        with pytest.raises(KeyError):
            sweep.point(999, "iterative")

    def test_orderings_hold(self, sweep):
        for n in (16, 64):
            it = sweep.point(n, "iterative")
            inc = sweep.point(n, "incremental-collective")
            assert it.freeze_time > inc.freeze_time
            assert inc.freeze_socket_bytes < it.freeze_socket_bytes

    def test_series(self, sweep):
        pts = sweep.series("collective")
        assert [p.n_connections for p in pts] == [16, 64]

    def test_render(self, sweep):
        b = render_fig5b(sweep)
        c = render_fig5c(sweep)
        assert "Figure 5b" in b and "connections" in b
        assert "Figure 5c" in c and "kB" in c


class TestFig5defDriver:
    def test_both_runs_present(self, comparison):
        assert not comparison.without_lb.load_balancing
        assert comparison.with_lb.load_balancing

    def test_lb_reduces_spread(self, comparison):
        assert comparison.spread_reduction() > 0

    def test_migrations_happened_with_lb_only(self, comparison):
        assert comparison.without_lb.migrations == []
        assert len(comparison.with_lb.migrations) >= 1

    def test_renderers(self, comparison):
        assert "Figure 5e" in render_fig5e(comparison.without_lb)
        assert "Figure 5f" in render_fig5f(comparison.with_lb)
        d = render_fig5d(comparison.with_lb)
        assert "Figure 5d" in d and "Migrations performed" in d
        assert "spread" in render_comparison(comparison)

    def test_renderer_asserts_lb_flag(self, comparison):
        with pytest.raises(AssertionError):
            render_fig5e(comparison.with_lb)
        with pytest.raises(AssertionError):
            render_fig5f(comparison.without_lb)
