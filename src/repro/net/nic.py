"""Network interfaces.

Every DVE server node has two (Section II-A): a *public* interface — all
nodes share one public IP, fed by the broadcast router — and a *local*
interface with a per-node cluster address on the switch.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappush
from typing import Callable, Optional

from .addr import IPAddr
from .link import ChunkTrain, Link
from .packet import Packet
from .switch import Switch

__all__ = ["Interface", "PUBLIC", "LOCAL"]

PUBLIC = "public"
LOCAL = "local"

#: Skipped copies kept before the first attempt to count them.
_SETTLE_BATCH = 64


class Interface:
    """A NIC: an IP bound to one side of a link, with an rx handler."""

    def __init__(self, ip: IPAddr, kind: str, name: str = "") -> None:
        if kind not in (PUBLIC, LOCAL):
            raise ValueError(f"unknown interface kind {kind!r}")
        self.ip = ip
        self.kind = kind
        self.name = name or f"{kind}@{ip}"
        self._link: Optional[Link] = None
        self._side: int = 0
        self._rx_handler: Optional[Callable[[Packet, "Interface"], None]] = None
        #: Installed with the handler: ``could_take(packet)`` is False
        #: when the handler would only count ``packet`` dropped, through
        #: ``not_taken(packet)`` (see :meth:`set_rx_handler`).
        self._could_take: Optional[Callable[[Packet], bool]] = None
        self._not_taken: Optional[Callable[[Packet], None]] = None
        #: Broadcast copies this interface would only count: their heap
        #: keys ``(arrival, NORMAL, eid, packet)`` in key order (see
        #: :meth:`skip`).
        self._skipped: list[tuple] = []
        self._settle_at = _SETTLE_BATCH
        self._up = True
        self._rx_packets = 0
        self.tx_packets = 0
        self._rx_bytes = 0
        self.tx_bytes = 0
        #: Chunk trains bound for this interface whose chunks have not
        #: all been counted as received (see :meth:`_settle_rx`).
        self._rx_trains: list[ChunkTrain] = []
        self.tx_dropped = 0
        self._rx_dropped = 0

    def connect(self, link: Link, side: int) -> None:
        """Plug this interface into one side of a link."""
        if self._link is not None:
            raise RuntimeError(f"{self.name} already connected")
        self._link = link
        self._side = side
        link.attach(side, self._deliver, owner=self)

    @property
    def connected(self) -> bool:
        return self._link is not None

    @property
    def link(self) -> Optional[Link]:
        """The attached link (``None`` before :meth:`connect`)."""
        return self._link

    @property
    def side(self) -> int:
        """Which side of the link this interface transmits from."""
        return self._side

    def set_rx_handler(
        self,
        handler: Optional[Callable[[Packet, "Interface"], None]],
        could_take: Optional[Callable[[Packet], bool]] = None,
        not_taken: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        """Install the receive handler.

        ``could_take(packet)`` returning False promises that ``handler``
        would do nothing with ``packet`` but count it dropped, which
        ``not_taken(packet)`` does.  A broadcast copy the node could not
        take is then not delivered at all (:meth:`skip`).
        """
        self.deliver_skipped()
        self._rx_handler = handler
        self._could_take = could_take
        self._not_taken = not_taken

    @property
    def up(self) -> bool:
        """Administrative state: a downed interface (crashed or stalled
        node, see :mod:`repro.faults`) silently drops traffic both ways,
        like a machine whose NIC stopped answering."""
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        self.deliver_skipped()
        self._up = value

    @property
    def rx_packets(self) -> int:
        """Packets received so far, chunk-train chunks included."""
        if self._rx_trains:
            self._settle_rx()
        if self._skipped:
            self._settle_skipped()
        return self._rx_packets

    @property
    def rx_bytes(self) -> int:
        """Bytes received so far, chunk-train chunks included."""
        if self._rx_trains:
            self._settle_rx()
        if self._skipped:
            self._settle_skipped()
        return self._rx_bytes

    @property
    def rx_dropped(self) -> int:
        """Packets that arrived while the interface was down."""
        if self._skipped:
            self._settle_skipped()
        return self._rx_dropped

    # -- skipped broadcast copies ---------------------------------------------
    def would_drop(self, packet: Packet) -> bool:
        """Whether delivering ``packet`` now would only be counted: the
        interface is down, or the node could not take it."""
        if not self._up:
            return True
        could_take = self._could_take
        return could_take is not None and not could_take(packet)

    def skip(self, entry: tuple) -> None:
        """Keep a copy :meth:`would_drop` instead of delivering it.

        ``entry`` is the heap key the delivery would have had
        (:meth:`~.link.Link.hold`).  The copy is counted once the event
        heap passes that key (:meth:`_settle_skipped`), unless the
        node's receive state changes first: :meth:`deliver_skipped`
        then schedules it after all.
        """
        skipped = self._skipped
        skipped.append(entry)
        if len(skipped) >= self._settle_at:
            self._settle_skipped()
            self._settle_at = max(_SETTLE_BATCH, 2 * len(skipped))

    def _settle_skipped(self) -> None:
        """Count the skipped copies the event heap has passed, as
        :meth:`_deliver` would have counted them.  State that could
        change the count (:attr:`up`, the handler, the node's sockets
        and hooks) has not changed since they were skipped."""
        skipped = self._skipped
        passed = self._link.env._passed()
        n = 0
        for entry in skipped:
            if entry > passed:
                break
            n += 1
        if not n:
            return
        if self._up:
            not_taken = self._not_taken
            size = 0
            for entry in skipped[:n]:
                packet = entry[3]
                size += packet.size
                not_taken(packet)
            self._rx_packets += n
            self._rx_bytes += size
        else:
            self._rx_dropped += n
        del skipped[:n]

    def deliver_skipped(self) -> None:
        """The node's receive state is about to change: count the
        skipped copies already due and schedule the others, each as a
        copy of its packet under the heap key it reserved, so they are
        delivered exactly as if they had never been skipped."""
        if not self._skipped:
            return
        self._settle_skipped()
        skipped, self._skipped = self._skipped, []
        env = self._link.env
        if env._closed:
            return  # the world has ended: nothing is delivered any more
        deliver = self._deliver
        queue = env._queue
        for arrival, priority, eid, packet in skipped:
            copy = packet.copy()
            copy.wire_seq = eid
            heappush(queue, (arrival, priority, eid, (deliver, copy)))

    def _settle_rx(self) -> None:
        """Count the train chunks delivered strictly before now."""
        link = self._link
        now = link.env._now
        if link._trains:
            link._settle(now, -1)
        pending = []
        for train in self._rx_trains:
            arrivals = train.arrivals
            self._receive(train, bisect_left(arrivals, now, train.delivered))
            if train.left or train.delivered < len(arrivals):
                pending.append(train)
        self._rx_trains = pending

    def _train_delivered(self, train: ChunkTrain) -> None:
        """The last chunk of ``train`` arrives: all of it is received."""
        self._receive(train, len(train.arrivals))
        self._rx_trains.remove(train)

    def _receive(self, train: ChunkTrain, upto: int) -> None:
        """Count ``train``'s chunks up to index ``upto`` as received."""
        n = upto - train.delivered
        self._rx_packets += n
        self._rx_bytes += n * train.size
        train.delivered = upto

    def transmit_train(self, count: int, size: int, dst: IPAddr) -> bool:
        """Send ``count`` padding chunks of ``size`` wire bytes to ``dst``
        as one :class:`~.link.ChunkTrain`.

        Returns ``False``, having done nothing, when the chunks must go
        as packets instead: this interface does not face a switch, or a
        link on the way has a tap or a fault filter (see
        :meth:`~.switch.Switch.train_egress`).
        """
        link = self._link
        if link is None:
            raise RuntimeError(f"{self.name} is not connected")
        if not self._up:
            self.tx_dropped += count
            return True
        switch = link.owner(1 - self._side)
        if not isinstance(switch, Switch) or not link.trains_ok:
            return False
        egress = switch.train_egress(dst)
        if egress is None:
            return False
        self.tx_packets += count
        self.tx_bytes += count * size
        link.send_train(count, size, self._side, egress)
        return True

    def transmit(self, packet: Packet) -> float:
        """Send a packet out this interface; returns delivery time."""
        if self._link is None:
            raise RuntimeError(f"{self.name} is not connected")
        if not self._up:
            self.tx_dropped += 1
            return self._link.env.now
        self.tx_packets += 1
        self.tx_bytes += packet.size
        return self._link.send(packet, self._side)

    def _deliver(self, packet: Packet) -> None:
        if not self._up:
            # Checked at delivery time, so a crash mid-flight also eats
            # packets that were already on the wire.
            self._rx_dropped += 1
            return
        self._rx_packets += 1
        self._rx_bytes += packet.size
        if self._rx_handler is not None:
            self._rx_handler(packet, self)

    def __repr__(self) -> str:
        return f"<Interface {self.name}>"
