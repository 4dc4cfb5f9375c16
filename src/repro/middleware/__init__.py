"""Decentralized load-balancing middleware (Section IV).

Per-node conductor daemons discover each other, exchange periodic load
heartbeats, and perform sender-initiated process migrations, with a
two-phase-commit admission on the receiver and calm-down periods after
each migration.  Decisions flow through a pluggable strategy layer
(:mod:`.strategy`): ClusterModel → Strategy → MigrationPlan → Planner →
admission.  The default ``paper-threshold`` strategy is the paper's
transfer / location / selection / information policy loop; the
``consolidate`` strategy adds power management on the same path.
"""

from .conductor import (
    CONDUCTOR_PORT,
    Conductor,
    ConductorConfig,
    install_conductor,
)
from .conductor import MigrationEvent
from .detector import ALIVE, DEAD, FailureDetector, PeerHealth, SUSPECT
from .loadinfo import LoadInfo, PeerDatabase
from .monitor import LoadMonitor
from .policies import (
    LargestProcessSelectionPolicy,
    LeastLoadedLocationPolicy,
    LocationPolicy,
    PolicyConfig,
    RandomLocationPolicy,
    SelectionPolicy,
    TransferPolicy,
)
from .strategy import (
    STRATEGIES,
    BalanceToAverageStrategy,
    ClusterModel,
    ConsolidateStrategy,
    CycleAwareStrategy,
    MigrationAction,
    MigrationPlan,
    NodeView,
    PaperThresholdStrategy,
    Planner,
    Strategy,
    make_strategy,
    register_strategy,
)
from .twophase import MigrationAdmission

__all__ = [
    "LoadInfo",
    "PeerDatabase",
    "LoadMonitor",
    "PolicyConfig",
    "TransferPolicy",
    "LocationPolicy",
    "LeastLoadedLocationPolicy",
    "RandomLocationPolicy",
    "SelectionPolicy",
    "LargestProcessSelectionPolicy",
    "MigrationAdmission",
    "Conductor",
    "ConductorConfig",
    "MigrationEvent",
    "CONDUCTOR_PORT",
    "install_conductor",
    "NodeView",
    "ClusterModel",
    "MigrationAction",
    "MigrationPlan",
    "Strategy",
    "PaperThresholdStrategy",
    "BalanceToAverageStrategy",
    "CycleAwareStrategy",
    "ConsolidateStrategy",
    "Planner",
    "STRATEGIES",
    "register_strategy",
    "make_strategy",
    "FailureDetector",
    "PeerHealth",
    "ALIVE",
    "SUSPECT",
    "DEAD",
]
