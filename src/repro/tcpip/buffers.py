"""Socket buffers (``sk_buff`` analogs) and the five TCP queues.

Section V-C.1 enumerates the queues socket migration must deal with:
*write* (outgoing, unacknowledged), *receive* (in-order, ready for the
application), *out-of-order*, plus *backlog* (packets arriving while the
socket is user-locked) and *prequeue* (Linux fast-path receive).  The
signal-based checkpoint guarantees the last two are empty at freeze time;
the first three are dumped and restored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from ..des import Environment, Event
from ..net import Endpoint
from .seq import SEQ_MOD, seq_add, seq_lt

__all__ = ["SKBuff", "WriteQueue", "ReceiveQueue", "OutOfOrderQueue"]

# Process-wide, as no id reaches an output: socket migration compares them
# only for identity and orders one socket's buffers by them.
_skb_ids = itertools.count(1)

_HALF = SEQ_MOD >> 1


@dataclass(slots=True)
class SKBuff:
    """A buffered data segment.

    ``ts_jiffies`` is the node-local jiffies stamp recorded at
    transmission/reception — one of the fields that must be shifted by
    the source/destination jiffies delta on migration.
    """

    seq: int
    size: int
    payload: Any = None
    src: Optional[Endpoint] = None
    ts_jiffies: int = 0
    retransmits: int = 0
    skb_id: int = field(default_factory=_skb_ids.__next__)

    @property
    def end_seq(self) -> int:
        return seq_add(self.seq, self.size)

    def migrate_record(self) -> dict:
        """State captured when dumping this buffer for migration."""
        return {
            "seq": self.seq,
            "size": self.size,
            "payload": self.payload,
            "src": self.src,
            "ts_jiffies": self.ts_jiffies,
            "retransmits": self.retransmits,
        }

    @classmethod
    def from_record(cls, record: dict, jiffies_delta: int = 0) -> "SKBuff":
        """Rebuild on the destination, shifting the jiffies stamp."""
        return cls(
            seq=record["seq"],
            size=record["size"],
            payload=record["payload"],
            src=record["src"],
            ts_jiffies=record["ts_jiffies"] + jiffies_delta,
            retransmits=record["retransmits"],
        )


class WriteQueue:
    """Sent-but-unacknowledged segments, in sequence order."""

    def __init__(self) -> None:
        self._bufs: list[SKBuff] = []

    def append(self, skb: SKBuff) -> None:
        if self._bufs and seq_lt(skb.seq, self._bufs[-1].end_seq):
            raise ValueError("write queue must stay in sequence order")
        self._bufs.append(skb)

    def ack_up_to(self, ack_seq: int) -> list[SKBuff]:
        """Remove fully-acknowledged segments; returns them."""
        acked = []
        bufs = self._bufs
        # seq_geq(ack_seq, skb.end_seq), inlined.
        while bufs and (ack_seq - bufs[0].seq - bufs[0].size) % SEQ_MOD < _HALF:
            acked.append(bufs.pop(0))
        return acked

    def head(self) -> Optional[SKBuff]:
        return self._bufs[0] if self._bufs else None

    def __len__(self) -> int:
        return len(self._bufs)

    def __iter__(self) -> Iterator[SKBuff]:
        return iter(self._bufs)

    def clear(self) -> list[SKBuff]:
        bufs, self._bufs = self._bufs, []
        return bufs


class ReceiveQueue:
    """In-order data ready for the application, with blocking recv."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._bufs: list[SKBuff] = []
        self._readers: list[Event] = []

    def push(self, skb: SKBuff) -> None:
        self._bufs.append(skb)
        if self._readers:
            self._wake()

    def _wake(self) -> None:
        while self._readers and self._bufs:
            self._readers.pop(0).succeed(self._bufs.pop(0))

    def get(self) -> Event:
        """Event succeeding with the next buffered segment."""
        ev = Event(self.env)
        if self._bufs:
            ev.succeed(self._bufs.pop(0))
        else:
            self._readers.append(ev)
        return ev

    @property
    def has_waiting_reader(self) -> bool:
        return bool(self._readers)

    def __len__(self) -> int:
        return len(self._bufs)

    def __iter__(self) -> Iterator[SKBuff]:
        return iter(self._bufs)

    def clear(self) -> list[SKBuff]:
        bufs, self._bufs = self._bufs, []
        return bufs

    def restore(self, bufs: list[SKBuff]) -> None:
        """Re-insert migrated buffers ahead of anything new."""
        self._bufs = list(bufs) + self._bufs
        self._wake()


class OutOfOrderQueue:
    """Segments beyond ``rcv_nxt``, keyed and drained by sequence."""

    def __init__(self) -> None:
        self._bufs: dict[int, SKBuff] = {}

    def insert(self, skb: SKBuff) -> None:
        # Duplicate out-of-order arrivals are stored once (seq-keyed).
        self._bufs.setdefault(skb.seq, skb)

    def pop_in_order(self, rcv_nxt: int) -> list[SKBuff]:
        """Remove and return the contiguous run starting at rcv_nxt."""
        run = []
        while rcv_nxt in self._bufs:
            skb = self._bufs.pop(rcv_nxt)
            run.append(skb)
            rcv_nxt = skb.end_seq
        return run

    def __len__(self) -> int:
        return len(self._bufs)

    def __iter__(self) -> Iterator[SKBuff]:
        return iter(sorted(self._bufs.values(), key=lambda b: b.seq))

    def clear(self) -> list[SKBuff]:
        bufs = list(self)
        self._bufs.clear()
        return bufs
