"""IP destination-cache entries.

Linux attaches a destination-cache entry to every outgoing packet,
inherited from the originating socket (Section V-D).  Address
translation that rewrites only the IP header leaves the old entry in
place, so the packet is still *physically* sent to the old destination —
the first of the two technical issues the paper reports.  The
translation filter therefore replaces the entry too.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net import IPAddr

__all__ = ["DstCacheEntry"]


@dataclass
class DstCacheEntry:
    """Resolved next-hop/destination for a socket's outgoing packets."""

    ip: IPAddr
