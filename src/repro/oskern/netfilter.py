"""Netfilter-style hook chains.

The paper's ``cap_trans_mod`` attaches functions to two phases of
network-stack processing (Sections V-B, V-D):

- ``NF_INET_LOCAL_IN`` — packets delivered to the local host (where both
  the capture filter and the incoming half of address translation live);
- ``NF_INET_LOCAL_OUT`` — locally generated packets (outgoing half of
  address translation).

Hooks run in priority order and return a verdict; ``NF_STOLEN`` means
the hook consumed the packet (e.g. queued it for later reinjection).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Optional

from ..net import Packet

__all__ = [
    "NF_INET_LOCAL_IN",
    "NF_INET_LOCAL_OUT",
    "NF_ACCEPT",
    "NF_DROP",
    "NF_STOLEN",
    "NetfilterHook",
    "NetfilterHooks",
]

NF_INET_LOCAL_IN = "NF_INET_LOCAL_IN"
NF_INET_LOCAL_OUT = "NF_INET_LOCAL_OUT"

NF_ACCEPT = "NF_ACCEPT"
NF_DROP = "NF_DROP"
NF_STOLEN = "NF_STOLEN"

HookFn = Callable[[Packet], str]


@dataclass(eq=False)
class NetfilterHook:
    """One registered hook function (equal only to itself)."""

    chain: str
    fn: HookFn
    priority: int = 0
    name: str = ""


class NetfilterHooks:
    """The per-node hook registry, traversed by the IP layer."""

    CHAINS = (NF_INET_LOCAL_IN, NF_INET_LOCAL_OUT)

    def __init__(self) -> None:
        #: Called before a ``LOCAL_IN`` hook is registered: the node's IP
        #: layer then delivers the broadcast copies in flight that the
        #: hook might see (:meth:`repro.tcpip.ip.IPLayer.deliver_skipped`).
        self.before_local_in: Optional[Callable[[], None]] = None
        #: The live, priority-sorted hooks of each chain.  Registration
        #: changes these lists in place, so a holder (the IP layer skips an
        #: empty chain without calling :meth:`run`) always sees the current
        #: hooks.  Read them; change them only through :meth:`register` and
        #: :meth:`unregister`.
        self.local_in: list[NetfilterHook] = []
        self.local_out: list[NetfilterHook] = []
        self._chains = {NF_INET_LOCAL_IN: self.local_in, NF_INET_LOCAL_OUT: self.local_out}

    def register(self, chain: str, fn: HookFn, priority: int = 0, name: str = "") -> NetfilterHook:
        if chain not in self._chains:
            raise ValueError(f"unknown chain {chain!r}")
        if chain == NF_INET_LOCAL_IN and self.before_local_in is not None:
            self.before_local_in()
        hook = NetfilterHook(chain, fn, priority, name)
        # After every hook of equal priority: registration order breaks ties.
        insort(self._chains[chain], hook, key=lambda h: h.priority)
        return hook

    def unregister(self, hook: NetfilterHook) -> None:
        try:
            self._chains[hook.chain].remove(hook)
        except ValueError:
            raise ValueError(f"hook {hook.name!r} is not registered") from None

    def close(self) -> None:
        """Unregister every hook and drop its function, so a daemon that
        keeps its hook handle (and the hook, a bound method of the daemon)
        forms no reference cycle once the node's world has ended."""
        for chain in self._chains.values():
            for hook in chain:
                hook.fn = None
            chain.clear()
        self.before_local_in = None

    def hooks(self, chain: str) -> list[NetfilterHook]:
        return list(self._chains[chain])

    def run(self, chain: str, packet: Packet) -> str:
        """Run ``packet`` through ``chain``; first non-ACCEPT verdict wins."""
        if chain not in self._chains:
            raise ValueError(f"unknown chain {chain!r}")
        for hook in self._chains[chain]:
            verdict = hook.fn(packet)
            if verdict == NF_ACCEPT:
                continue
            if verdict in (NF_DROP, NF_STOLEN):
                return verdict
            raise ValueError(f"hook {hook.name!r} returned bad verdict {verdict!r}")
        return NF_ACCEPT
