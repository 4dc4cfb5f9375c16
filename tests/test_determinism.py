"""Reproducibility guarantees: identical seeds replay identical
experiments, different seeds genuinely differ.

Every experiment harness relies on this — EXPERIMENTS.md quotes absolute
numbers that must regenerate bit-identically on any machine.
"""

from dataclasses import replace

import numpy as np

from repro.analysis import FIG5_QUICK_CAMPAIGN
from repro.analysis.fig5bc import FIG5B_WORLD
from repro.analysis.fig5def import build_fig5_world, run_fig5, zone_counts
from repro.core import LiveMigrationConfig
from repro.testing import MigrationWorld


def fig5b_migration(n, seed):
    """One Fig. 5b migration of a zone server with ``n`` clients."""
    world = MigrationWorld(replace(FIG5B_WORLD, clients=n, seed=seed))
    world.warm()
    report = world.migrate(LiveMigrationConfig(strategy="incremental-collective"))
    world.close()
    return report


def small_dve(seed):
    """The quick Fig. 5 campaign with load balancing, at ``seed``."""
    world = build_fig5_world(FIG5_QUICK_CAMPAIGN, load_balancing=True, seed=seed)
    return run_fig5(world, FIG5_QUICK_CAMPAIGN)


class TestDeterminism:
    def test_migration_replays_bit_identically(self):
        a = fig5b_migration(64, seed=7)
        b = fig5b_migration(64, seed=7)
        assert a.freeze_time == b.freeze_time
        assert a.total_time == b.total_time
        assert a.bytes.total == b.bytes.total
        assert a.precopy_rounds == b.precopy_rounds
        assert a.packets_captured == b.packets_captured

    def test_different_seed_differs(self):
        a = fig5b_migration(64, seed=7)
        b = fig5b_migration(64, seed=8)
        # Jiffies offsets differ -> the timestamp delta must differ.
        assert a.jiffies_delta != b.jiffies_delta

    def test_dve_scenario_replays_identically(self):
        a = small_dve(5)
        b = small_dve(5)
        assert a.final_loads() == b.final_loads()
        assert a.final_proc_counts() == b.final_proc_counts()
        assert len(a.migrations) == len(b.migrations)
        for ea, eb in zip(a.migrations, b.migrations):
            assert ea.time == eb.time
            assert ea.process_name == eb.process_name
            assert ea.destination == eb.destination
        for name in a.cpu.names():
            assert list(a.cpu[name].values) == list(b.cpu[name].values)

    def test_dve_different_seed_differs(self):
        """The seed reaches the built Fig. 5 world (per-node jiffies
        offsets); the count-space drift itself draws no randomness, so
        the client allocation does not move with it."""
        a = build_fig5_world(FIG5_QUICK_CAMPAIGN, load_balancing=False, seed=5)
        b = build_fig5_world(FIG5_QUICK_CAMPAIGN, load_balancing=False, seed=6)
        offsets = [
            [n.kernel.jiffies.boot_offset for n in w.cluster.nodes] for w in (a, b)
        ]
        assert offsets[0] != offsets[1]
        assert np.array_equal(
            zone_counts(FIG5_QUICK_CAMPAIGN.with_overrides(seed=5), 100.0),
            zone_counts(FIG5_QUICK_CAMPAIGN.with_overrides(seed=6), 100.0),
        )


class TestTraceByteDeterminism:
    def test_traced_migration_is_byte_identical(self, tmp_path):
        """Same seed -> byte-identical trace JSONL, across interpreters.

        Runs the traced fig5b quick migration in two fresh subprocesses
        (each has its own ``PYTHONHASHSEED``, so this catches a trace that
        depends on string-hash order) and compares the raw bytes.  This is
        also the guard that the substrate fast paths (batched dirty
        writes, deferred-call timers, route caching) never perturb event
        ordering.
        """
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from repro.analysis.fig5bc import FIG5B_WORLD\n"
            "from repro.core import LiveMigrationConfig\n"
            "from repro.obs import write_jsonl\n"
            "from repro.testing import MigrationWorld\n"
            "world = MigrationWorld(replace(FIG5B_WORLD, clients=16, seed=42, trace=True))\n"
            "world.warm()\n"
            "world.migrate(LiveMigrationConfig(strategy='incremental-collective'))\n"
            "write_jsonl(sys.argv[1], world.tracer)\n"
        )
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            subprocess.run(
                [sys.executable, "-c", script, str(p)], check=True, timeout=300
            )
        a, b = paths[0].read_bytes(), paths[1].read_bytes()
        assert a, "trace is empty"
        assert a == b
