"""DVE simulation workload (Section VI-C, Figure 5)."""

from .mysql import MYSQL_PORT, MySQLServer
from .space import Zone, ZoneGrid
from .zoneserver import ZoneServer, ZoneServerConfig

__all__ = [
    "Zone",
    "ZoneGrid",
    "MySQLServer",
    "MYSQL_PORT",
    "ZoneServer",
    "ZoneServerConfig",
]
