"""Point-to-point links with bandwidth, propagation delay and FIFO
serialization.

Freeze-time and packet-delay results must *emerge* from transfer sizes,
so the link model is the one place where bytes turn into simulated time:
``tx_time = bits / bandwidth`` with per-direction FIFO queueing, plus a
fixed propagation latency.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Optional

from ..des import Environment
from ..des.events import NORMAL
from .packet import Packet

__all__ = ["ChunkTrain", "Link", "LinkTap", "LinkFaultFilter", "DROP", "CORRUPT"]

#: Signature of a wire tap: (time, packet, from_side)
LinkTap = Callable[[float, Packet, int], None]

#: Verdicts a fault filter may return (``None`` delivers normally).
DROP = "drop"
CORRUPT = "corrupt"

#: Signature of a fault filter: (time, packet, from_side) -> verdict.
#: Installed by the fault-injection plane (:mod:`repro.faults`); a
#: non-``None`` verdict suppresses delivery.  The packet still occupies
#: transmit time — a lossy or partitioned wire serializes bits that
#: never arrive, it does not refund bandwidth.
LinkFaultFilter = Callable[[float, Packet, int], Optional[str]]


class ChunkTrain:
    """``count`` equal padding chunks sent back to back through one switch.

    A bulk transfer pads the wire with filler that nothing downstream
    reads; only the link time, counters and queueing it causes matter.
    Instead of one packet (and two delivery events) per chunk, the
    source link applies the whole train eagerly and the switch egress
    link holds it: :meth:`Link._settle` forwards its chunks with the
    same float operations, in the same order against other packets, as
    the per-packet path would, whenever that state is next touched.
    """

    __slots__ = (
        "size", "left", "done", "tx", "latency", "at", "last_at", "rank",
        "arrivals", "delivered",
    )

    def __init__(self, size: int, count: int, first_done: float, tx: float,
                 latency: float, last_at: float, rank: int) -> None:
        #: Wire bytes of one chunk.
        self.size = size
        #: Chunks not yet forwarded by the switch.
        self.left = count
        #: Ingress-link transmit end of the next chunk to forward; it
        #: reaches the switch at ``at``.  Regenerated chunk by chunk as
        #: ``done + tx`` exactly like :meth:`Link.send` computed it.
        self.done = first_done
        self.tx = tx
        self.latency = latency
        self.at = first_done + latency
        self.last_at = last_at
        #: Heap tie-break rank: ``env._eid`` when the train was created.
        #: A chunk precedes a same-instant event iff ``rank`` is lower
        #: than that event's id.
        self.rank = rank
        #: Delivery times at the NIC of the chunks forwarded so far.
        self.arrivals: list[float] = []
        #: How many of ``arrivals`` the NIC has counted.
        self.delivered = 0


def _next_chunk(train: ChunkTrain) -> tuple[float, int]:
    return (train.at, train.rank)


class Link:
    """Full-duplex point-to-point link between two attached receivers."""

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = 1e9,
        latency: float = 60e-6,
        name: str = "",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency = float(latency)
        self.name = name
        self._receivers: list[Optional[Callable[[Packet], None]]] = [None, None]
        #: The switch or interface attached on each side (``None`` for a
        #: bare receiver callback); chunk trains need to know which.
        self._owners: list[Any] = [None, None]
        #: Per-direction time at which the transmitter frees up.
        self._busy_until = [0.0, 0.0]
        self._bytes_sent = [0, 0]
        self._packets_sent = [0, 0]
        #: Chunk trains queued at the switch for this link (switch side
        #: 0 transmits them); settled lazily by :meth:`_settle`.
        self._trains: list[ChunkTrain] = []
        #: Packets suppressed per direction by the fault filter.
        self.packets_dropped = [0, 0]
        self.packets_corrupted = [0, 0]
        self._taps: list[LinkTap] = []
        self._fault_filter: Optional[LinkFaultFilter] = None

    def attach(self, side: int, receiver: Callable[[Packet], None], owner: Any = None) -> None:
        """Attach the receive callback for one side (0 or 1); ``owner``
        is the switch or interface it belongs to."""
        if side not in (0, 1):
            raise ValueError("side must be 0 or 1")
        if self._receivers[side] is not None:
            raise RuntimeError(f"side {side} of {self!r} already attached")
        self._receivers[side] = receiver
        self._owners[side] = owner

    def close(self) -> None:
        """Detach both sides, the taps and the fault filter, so the link
        no longer keeps what was attached to it alive (the world it
        belongs to has ended)."""
        self._receivers = [None, None]
        self._owners = [None, None]
        self._taps = []
        self._fault_filter = None

    def owner(self, side: int) -> Any:
        """The switch or interface attached on ``side``, if any."""
        return self._owners[side]

    @property
    def bytes_sent(self) -> list[int]:
        """Bytes transmitted per direction (exact at every read)."""
        if self._trains:
            self._settle(self.env._now, -1)
        return self._bytes_sent

    @property
    def packets_sent(self) -> list[int]:
        """Packets transmitted per direction (exact at every read)."""
        if self._trains:
            self._settle(self.env._now, -1)
        return self._packets_sent

    @property
    def trains_ok(self) -> bool:
        """Whether a chunk train may cross this link: no tap and no
        fault filter, which see (and draw randomness for) each packet."""
        return not self._taps and self._fault_filter is None

    def add_tap(self, tap: LinkTap) -> None:
        """Register a tcpdump-like wire tap, called at transmit start."""
        self._taps.append(tap)

    def set_fault_filter(self, fn: LinkFaultFilter) -> None:
        """Install the (single) fault filter deciding per-packet fate.

        One filter per link: the fault-injection plane multiplexes all
        of a link's scheduled faults behind it.
        """
        if self._fault_filter is not None:
            raise RuntimeError(f"link {self.name!r} already has a fault filter")
        self._fault_filter = fn

    def send(self, packet: Packet, from_side: int) -> float:
        """Queue ``packet`` for transmission from ``from_side``.

        Returns the (absolute) delivery time at the other side.
        """
        if from_side not in (0, 1):
            raise ValueError("from_side must be 0 or 1")
        to_side = 1 - from_side
        receiver = self._receivers[to_side]
        if receiver is None:
            raise RuntimeError(f"nothing attached on side {to_side} of link {self.name!r}")

        env = self.env
        now = env._now
        busy = self._busy_until
        start = busy[from_side]
        if start < now:
            start = now
        size = packet.size
        done = start + size * 8 / self.bandwidth_bps
        busy[from_side] = done
        arrival = done + self.latency

        self._bytes_sent[from_side] += size
        self._packets_sent[from_side] += 1
        if self._taps:
            for tap in self._taps:
                tap(start, packet, from_side)

        if self._fault_filter is not None:
            verdict = self._fault_filter(start, packet, from_side)
            if verdict is not None:
                # The bits crossed (or jammed) the wire but never reach
                # the receiver; the sender learns nothing at this layer.
                if verdict == CORRUPT:
                    self.packets_corrupted[from_side] += 1
                else:
                    self.packets_dropped[from_side] += 1
                return arrival

        # Cheap one-shot delivery entry — no Event, callback list or
        # closure per packet.  This is env.call_later inlined (the
        # per-packet cost matters): it burns one event id exactly like
        # the event()+schedule pair it replaced, so same-tick delivery
        # order (and trace determinism) is unchanged.
        env._eid = eid = env._eid + 1
        packet.wire_seq = eid
        heappush(env._queue, (arrival, NORMAL, eid, (receiver, packet)))
        return arrival

    def hold(self, packet: Packet, from_side: int) -> tuple:
        """Transmit ``packet`` from ``from_side`` without delivering it.

        The wire time, the counters and the event id are exactly those of
        :meth:`send`; the delivery is left to the caller, which gets the
        heap key it would have had, as ``(arrival, NORMAL, eid, packet)``.
        Only for a link with neither a tap nor a fault filter
        (:attr:`trains_ok`), which would have to see the copy.
        """
        env = self.env
        now = env._now
        busy = self._busy_until
        start = busy[from_side]
        if start < now:
            start = now
        size = packet.size
        done = start + size * 8 / self.bandwidth_bps
        busy[from_side] = done
        arrival = done + self.latency
        self._bytes_sent[from_side] += size
        self._packets_sent[from_side] += 1
        env._eid = eid = env._eid + 1
        if arrival > env._tail:
            env._tail = arrival
        return (arrival, NORMAL, eid, packet)

    # -- chunk trains ---------------------------------------------------------
    def send_train(self, count: int, size: int, from_side: int, egress: "Link") -> None:
        """Transmit ``count`` chunks of ``size`` wire bytes back to back
        from ``from_side`` into the switch on the other side, bound for
        the switch port ``egress``.

        This link's transmitter and counters advance now, one chunk at a
        time with :meth:`send`'s own float operations; ``egress`` holds
        the train until something touches it.  The caller has checked
        that both links take trains (:attr:`trains_ok`).
        """
        env = self.env
        now = env._now
        busy = self._busy_until
        start = busy[from_side]
        if start < now:
            start = now
        tx = size * 8 / self.bandwidth_bps
        first = done = start + tx
        for _ in range(count - 1):
            done = done + tx
        busy[from_side] = done
        self._bytes_sent[from_side] += count * size
        self._packets_sent[from_side] += count
        last_at = done + self.latency
        train = ChunkTrain(size, count, first, tx, self.latency, last_at, env._eid)
        egress._trains.append(train)
        nic = egress._owners[1]
        if nic._rx_trains:
            nic._settle_rx()  # drop trains it has received in full
        nic._rx_trains.append(train)
        # The train's last chunk keeps its two events (switch arrival,
        # then NIC delivery), so a train that no later packet follows
        # still settles and the clock still reaches its end.  Each
        # takes its id where the per-packet path would, so same-instant
        # order is unchanged.
        env._eid = eid = env._eid + 1
        heappush(env._queue, (last_at, NORMAL, eid, (egress._train_end, train)))

    def _train_end(self, train: ChunkTrain) -> None:
        """The last chunk reaches the switch: forward it (and whatever
        the heap would have forwarded before it), then schedule its
        delivery."""
        self._settle(train.last_at, train.rank + 1)
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(
            env._queue,
            (train.arrivals[-1], NORMAL, eid, (self._owners[1]._train_delivered, train)),
        )

    def _settle(self, until: float, rank: int) -> None:
        """Forward, from switch side 0, every queued chunk that the event
        heap would process before an event at ``until`` with id ``rank``
        (``rank=-1``: strictly before ``until``, i.e. a read from outside
        any event at that instant)."""
        trains = self._trains
        busy = self._busy_until
        while trains:
            # The train whose next chunk comes first runs alone up to the
            # caller's instant or the next chunk of any other train.
            train = min(trains, key=_next_chunk) if len(trains) > 1 else trains[0]
            bound = (until, rank)
            for other in trains:
                if other is not train and _next_chunk(other) < bound:
                    bound = _next_chunk(other)
            bound_at, bound_rank = bound
            at = train.at
            r = train.rank
            if not (at < bound_at or (at == bound_at and r < bound_rank)):
                return
            size = train.size
            tx = size * 8 / self.bandwidth_bps
            latency = self.latency
            arrivals = train.arrivals
            left = train.left
            done = train.done
            ttx = train.tx
            tlat = train.latency
            n = 0
            while True:
                start = busy[0]
                if start < at:
                    start = at
                end = start + tx
                busy[0] = end
                arrivals.append(end + latency)
                n += 1
                left -= 1
                if not left:
                    break
                done = done + ttx
                at = done + tlat
                if not (at < bound_at or (at == bound_at and r < bound_rank)):
                    break
            train.left = left
            train.done = done
            train.at = at
            self._bytes_sent[0] += n * size
            self._packets_sent[0] += n
            self._owners[0]._forwarded += n
            if not left:
                trains.remove(train)

    def queueing_delay(self, from_side: int) -> float:
        """How long a packet sent right now would wait before tx starts."""
        if self._trains:
            self._settle(self.env._now, -1)
        return max(0.0, self._busy_until[from_side] - self.env.now)

    def __repr__(self) -> str:
        return f"<Link {self.name!r} {self.bandwidth_bps/1e9:.1f}Gbps {self.latency*1e6:.0f}us>"
