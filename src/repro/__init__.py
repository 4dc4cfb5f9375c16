"""repro — a full-system reproduction of

    "An Efficient Process Live Migration Mechanism for Load Balanced
     Distributed Virtual Environments"
    (B. Gerofi, H. Fujita, Y. Ishikawa — IEEE CLUSTER 2010)

as a deterministic discrete-event simulation: a Linux-like kernel
substrate (memory management with dirty-bit tracking, netfilter,
jiffies), a migratable TCP/UDP stack, a BLCR-style checkpoint/restart
layer, the paper's live-migration mechanism with iterative / collective
/ incremental-collective socket migration, packet-loss prevention and
in-cluster address translation, the decentralized load-balancing
middleware, and the two evaluation workloads (an OpenArena-like FPS
server and the 10,000-client DVE simulation).

Quick start::

    from repro.core import LiveMigrationConfig
    from repro.testing import MigrationWorld, WorldSpec

    world = MigrationWorld(WorldSpec(name="game_server", pages=256, clients=8))
    report = world.migrate(LiveMigrationConfig())
    print(report.summary())
"""

import importlib

__version__ = "1.0.0"

#: Subpackages, imported on first attribute access (PEP 562), so that
#: ``import repro.des`` does not load the figure or campaign code.
_SUBPACKAGES = (
    "des",
    "net",
    "oskern",
    "tcpip",
    "blcr",
    "core",
    "faults",
    "middleware",
    "openarena",
    "dve",
    "analysis",
)
#: Names re-exported from :mod:`repro.cluster`.
_CLUSTER_NAMES = ("Cluster", "ClusterConfig", "build_cluster")

__all__ = [*_CLUSTER_NAMES, *_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    if name in _CLUSTER_NAMES:
        return getattr(importlib.import_module(".cluster", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
