"""A TCP implementation sufficient to migrate.

Implements what the paper's socket migration manipulates (Section V-C.1):

- established + listening states with real handshakes;
- sequence/ack bookkeeping with the write / receive / out-of-order
  queues, plus the backlog (packets arriving under a user lock) and the
  prequeue (fast-path receive while a reader is blocked);
- RTO-based retransmission with an armable/clearable timer that keeps
  one wake per socket on the event heap (``mod_timer``-style);
- TCP timestamps derived from the node's *jiffies* clock through a
  per-socket ``ts_offset`` (the field migration adjusts), with a
  PAWS-style check on the receiver so that unadjusted timestamps cause
  observable breakage;
- a destination-cache entry inherited by every outgoing packet.

Congestion-control variables (cwnd/ssthresh) are tracked and migrated but
do not gate transmission; our workloads are interactivity-bound, not
bandwidth-bound, and the receive window provides the flow-control bound.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Optional

from ..des import Event
from ..des.events import NORMAL
from ..net import Endpoint, FlowKey, IPAddr, PROTO_TCP, Packet, TCPFlags, TCPHeader
from ..net.packet import new_packet, transport_checksum
from .buffers import OutOfOrderQueue, ReceiveQueue, SKBuff, WriteQueue
from .dstcache import DstCacheEntry
from .seq import SEQ_MOD, seq_add, seq_gt, seq_leq

if TYPE_CHECKING:  # pragma: no cover
    from .stack import NetworkStack

__all__ = ["TCPSocket", "TCPState", "EOF", "MSS"]

MSS = 1448
INITIAL_RTO = 0.2
MAX_RTO = 120.0
MIN_RTO = 0.2
DEFAULT_WINDOW = 65535

#: Sentinel payload marking end-of-stream in the receive queue.
EOF = object()

#: The flag sets segments carry, shared by every segment (``TCPFlags``
#: is frozen).
ACK = TCPFlags(ack=True)
_ACK_BITS = ACK.bits
SYN = TCPFlags(syn=True)
SYN_ACK = TCPFlags(syn=True, ack=True)
FIN_ACK = TCPFlags(fin=True, ack=True)

_HALF = SEQ_MOD >> 1


class TCPState:
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"


class TCPSocket:
    """One TCP endpoint living in a node's network stack."""

    def __init__(self, stack: "NetworkStack", proc: Any = None) -> None:
        self.stack = stack
        self.env = stack.env
        #: Owning SimProcess (None for bare test sockets).
        self.proc = proc
        self.state = TCPState.CLOSED
        self.local: Optional[Endpoint] = None
        self.remote: Optional[Endpoint] = None

        # -- sequence state --
        self.iss = 0
        self.irs = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self.snd_wnd = DEFAULT_WINDOW
        self.rcv_wnd = DEFAULT_WINDOW

        # -- congestion state (tracked + migrated, not gating) --
        self.cwnd = 10 * MSS
        self.ssthresh = 64 * 1024

        # -- RTT / RTO --
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self.rto_armed = False
        #: ``(deadline, eid)`` of the latest arm: the heap key the timer
        #: fires under (see :meth:`_arm_rto`).
        self._rto_key: Optional[tuple[float, int]] = None
        #: Key of the socket's one live wake on the event heap, if any.
        self._rto_wake: Optional[tuple[float, int]] = None

        # -- timestamps --
        #: Added to node jiffies when stamping ts_val; migration adds the
        #: source/destination jiffies delta here to keep the apparent
        #: clock continuous (Section V-C.1).
        self.ts_offset = 0
        #: Most recent peer ts_val accepted (PAWS state).
        self.ts_recent = 0
        #: Node jiffies when ts_recent was updated (adjusted on migration).
        self.ts_recent_stamp = 0

        # -- queues --
        self.write_queue = WriteQueue()
        self.receive_queue = ReceiveQueue(self.env)
        self.ooo_queue = OutOfOrderQueue()
        self.backlog: list[Packet] = []
        self.prequeue: list[Packet] = []
        self.prequeue_enabled = True

        # -- locking --
        self.locked = False

        # -- listener state --
        self.accept_backlog = 0
        self._accept_queue: list[TCPSocket] = []
        self._accept_waiters: list[Event] = []
        #: Children still in SYN_RCVD (kernel-internal, no fd yet).
        self._embryos: list[TCPSocket] = []
        self.parent: Optional[TCPSocket] = None
        #: The flow's local IP as the *peer* first saw it; set when an
        #: in-cluster migration rewrites the local address, so later
        #: migrations can tell the peer's transd the right old_ip.
        self.orig_local_ip: Optional[IPAddr] = None

        # -- misc --
        self.dst_entry: Optional[DstCacheEntry] = None
        self._connect_event: Optional[Event] = None
        self.fin_received = False
        self.hashed = False
        #: True between unhash-on-source and rehash-on-destination.
        self.migrating = False

        # -- counters --
        self.retransmit_count = 0
        self.paws_drops = 0
        self.prequeue_hits = 0
        self.backlog_hits = 0
        self.rtt_samples = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------ utils
    @property
    def kernel(self):
        return self.stack.kernel

    @property
    def flow_key(self) -> FlowKey:
        if self.local is None or self.remote is None:
            raise RuntimeError("socket has no flow yet")
        return FlowKey(PROTO_TCP, self.local, self.remote)

    def current_ts_val(self) -> int:
        """The node's jiffies plus ``ts_offset``: the TCP timestamp clock.
        The per-segment paths (``_build_packet``, ``_tcp_rcv``'s fast
        path, ``_ack_advances``) compute the same sum inline."""
        clock = self.stack.jiffies
        return clock.boot_offset + int(self.env._now * clock.hz) + self.ts_offset

    # ------------------------------------------------------------- user calls
    def bind(self, port: int, ip: Optional[IPAddr] = None) -> None:
        if self.local is not None:
            raise RuntimeError("socket already bound")
        if ip is None:
            ip = self.stack.default_ip()
        self.local = Endpoint(ip, port)

    def listen(self, backlog: int = 128) -> None:
        if self.local is None:
            raise RuntimeError("listen before bind")
        if self.state != TCPState.CLOSED:
            raise RuntimeError(f"cannot listen in state {self.state}")
        self.state = TCPState.LISTEN
        self.accept_backlog = backlog
        self.stack.tables.bhash_insert(self.local.ip, self.local.port, self)

    def accept(self) -> Event:
        """Event succeeding with the next established child socket."""
        if self.state != TCPState.LISTEN:
            raise RuntimeError("accept on a non-listening socket")
        ev = Event(self.env)
        if self._accept_queue:
            self._hand_over(self._accept_queue.pop(0), ev)
        else:
            self._accept_waiters.append(ev)
        return ev

    def connect(self, remote: Endpoint) -> Event:
        """Active open; returned event succeeds when ESTABLISHED."""
        if self.state != TCPState.CLOSED:
            raise RuntimeError(f"cannot connect in state {self.state}")
        if self.local is None:
            iface = self.kernel.route(remote.ip)
            self.local = Endpoint(iface.ip, self.stack.alloc_ephemeral_port())
        self.remote = remote
        self.dst_entry = DstCacheEntry(remote.ip)
        self.iss = self.stack.new_iss()
        self.snd_una = self.iss
        self.snd_nxt = seq_add(self.iss, 1)
        self.state = TCPState.SYN_SENT
        self.stack.tables.ehash_insert(self.flow_key, self)
        self.hashed = True
        self._connect_event = Event(self.env)
        self._send_ctl(SYN, seq=self.iss)
        self._arm_rto()
        return self._connect_event

    def send(self, payload: Any, size: int) -> None:
        """Queue and transmit application data."""
        if self.state not in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            raise RuntimeError(f"send in state {self.state}")
        if size <= 0:
            raise ValueError("size must be positive")
        offset = 0
        while offset < size:
            chunk = min(MSS, size - offset)
            skb = SKBuff(
                seq=self.snd_nxt,
                size=chunk,
                payload=payload,
                # Raw node jiffies (like skb->tstamp): this is the field
                # migration shifts by the inter-node jiffies delta.
                ts_jiffies=self.stack.jiffies.jiffies,
            )
            self.write_queue.append(skb)
            self.snd_nxt = seq_add(self.snd_nxt, chunk)
            self._send_data(skb)
            offset += chunk
        self.bytes_sent += size
        if not self.rto_armed:
            self._arm_rto()

    def recv(self) -> Event:
        """Event succeeding with the next in-order SKBuff (or EOF payload).

        A blocked reader marks the owning thread as in-syscall so the
        checkpoint signal semantics (abandon the call, return to
        userspace) are modelled faithfully.
        """
        return self.receive_queue.get()

    def close(self) -> None:
        if self.state == TCPState.LISTEN:
            self.state = TCPState.CLOSED
            self.stack.tables.bhash_remove(self.local.ip, self.local.port)
            return
        if self.state == TCPState.ESTABLISHED:
            self.state = TCPState.FIN_WAIT_1
        elif self.state == TCPState.CLOSE_WAIT:
            self.state = TCPState.LAST_ACK
        elif self.state == TCPState.CLOSED:
            return
        else:
            raise RuntimeError(f"close in state {self.state}")
        fin_seq = self.snd_nxt
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self._send_ctl(FIN_ACK, seq=fin_seq)
        if not self.rto_armed:
            self._arm_rto()

    # --------------------------------------------------------------- locking
    def lock_user(self) -> None:
        """Acquire the user socket lock (app is inside a socket syscall)."""
        if self.locked:
            raise RuntimeError("socket already locked")
        self.locked = True

    def unlock_user(self) -> None:
        """Release the lock and process the backlog queue."""
        if not self.locked:
            raise RuntimeError("socket not locked")
        self.locked = False
        self._process_backlog()

    def force_userspace(self) -> None:
        """Checkpoint-signal semantics: the owning thread abandons any
        in-flight socket syscall, which releases the lock (processing the
        backlog) and drains the prequeue — leaving both provably empty
        for the freeze phase (Section V-C.1)."""
        self._drain_prequeue()
        if self.locked:
            self.unlock_user()

    def _process_backlog(self) -> None:
        while self.backlog and not self.locked:
            self._tcp_rcv(self.backlog.pop(0))

    def _drain_prequeue(self, _arg=None) -> None:
        while self.prequeue:
            self._tcp_rcv(self.prequeue.pop(0))

    # --------------------------------------------------------------- receive
    def segment_arrives(self, pkt: Packet) -> None:
        """Entry from the IP layer (after netfilter LOCAL_IN)."""
        if self.locked:
            # Socket locked by the user: defer to the backlog queue.
            self.backlog.append(pkt)
            self.backlog_hits += 1
            return
        if (
            pkt.payload_size > 0
            and self.prequeue_enabled
            and self.state == TCPState.ESTABLISHED
            and self.receive_queue.has_waiting_reader
        ):
            # Fast path: queue to the prequeue, processed "in process
            # context" — modelled as an immediately-scheduled drain.
            self.prequeue.append(pkt)
            self.prequeue_hits += 1
            self.env.call_later(0.0, self._drain_prequeue)
            return
        self._tcp_rcv(pkt)

    def _tcp_rcv(self, pkt: Packet) -> None:
        hdr = pkt.tcp
        assert hdr is not None

        # Header prediction: an in-order ESTABLISHED segment carrying only
        # ACK whose timestamp has not regressed.  The steps below are the
        # slow path's for that segment (PAWS passes, the ACK is processed,
        # data goes to the receive queue), with the seq_* tests inlined.
        ts_val = hdr.ts_val
        if (
            self.state == TCPState.ESTABLISHED
            and hdr.flags.bits == _ACK_BITS
            and hdr.seq == self.rcv_nxt
            and ts_val >= self.ts_recent
        ):
            if ts_val != 0 and ts_val > self.ts_recent:
                self.ts_recent = ts_val
                clock = self.stack.jiffies
                self.ts_recent_stamp = (
                    clock.boot_offset + int(self.env._now * clock.hz) + self.ts_offset
                )
            if 0 < (hdr.ack - self.snd_una) % SEQ_MOD < _HALF:
                self._ack_advances(hdr)
            if pkt.payload_size > 0:
                self._queue_in_order(pkt)
            return

        if self.state == TCPState.LISTEN:
            if hdr.flags.syn and not hdr.flags.ack:
                self._handle_syn(pkt)
            return

        if self.state == TCPState.SYN_SENT:
            if hdr.flags.syn and hdr.flags.ack and hdr.ack == seq_add(self.iss, 1):
                self.irs = hdr.seq
                self.rcv_nxt = seq_add(hdr.seq, 1)
                self.snd_una = hdr.ack
                self.snd_wnd = hdr.window
                self.ts_recent = hdr.ts_val
                self.ts_recent_stamp = self.current_ts_val()
                self.state = TCPState.ESTABLISHED
                self._stop_rto()
                self._send_ctl(ACK, seq=self.snd_nxt)
                if self._connect_event is not None:
                    self._connect_event.succeed(self)
                    self._connect_event = None
            return

        # -- PAWS: reject segments whose timestamp regressed --------------
        if hdr.ts_val != 0 and self.ts_recent != 0 and hdr.ts_val < self.ts_recent:
            self.paws_drops += 1
            self._send_ctl(ACK, seq=self.snd_nxt)
            return
        if hdr.ts_val != 0 and seq_leq(hdr.seq, self.rcv_nxt):
            if hdr.ts_val > self.ts_recent:
                self.ts_recent = hdr.ts_val
                self.ts_recent_stamp = self.current_ts_val()

        if self.state == TCPState.SYN_RCVD:
            if hdr.flags.ack and hdr.ack == seq_add(self.iss, 1):
                self.snd_una = hdr.ack
                self.snd_wnd = hdr.window
                self.state = TCPState.ESTABLISHED
                self._stop_rto()
                if self.parent is not None:
                    if self in self.parent._embryos:
                        self.parent._embryos.remove(self)
                    self.parent._deliver_child(self)
            # Fall through: the handshake ACK may carry data.

        if hdr.flags.ack:
            self._process_ack(hdr)

        if pkt.payload_size > 0:
            self._process_data(pkt)

        if hdr.flags.fin:
            self._process_fin(hdr)

    def _handle_syn(self, pkt: Packet) -> None:
        hdr = pkt.tcp
        assert hdr is not None
        child = TCPSocket(self.stack, proc=self.proc)
        child.parent = self
        child.local = Endpoint(pkt.dst_ip, pkt.dport)
        child.remote = Endpoint(pkt.src_ip, pkt.sport)
        key = child.flow_key
        if self.stack.tables.ehash_lookup(key) is not None:
            return  # duplicate SYN for an in-progress connection
        child.irs = hdr.seq
        child.rcv_nxt = seq_add(hdr.seq, 1)
        child.iss = self.stack.new_iss()
        child.snd_una = child.iss
        child.snd_nxt = seq_add(child.iss, 1)
        child.snd_wnd = hdr.window
        child.ts_recent = hdr.ts_val
        child.ts_recent_stamp = child.current_ts_val()
        child.dst_entry = DstCacheEntry(child.remote.ip)
        child.state = TCPState.SYN_RCVD
        self._embryos.append(child)
        self.stack.tables.ehash_insert(key, child)
        child.hashed = True
        child._send_ctl(SYN_ACK, seq=child.iss)
        child._arm_rto()

    def _deliver_child(self, child: "TCPSocket") -> None:
        if self._accept_waiters:
            self._hand_over(child, self._accept_waiters.pop(0))
        else:
            self._accept_queue.append(child)

    def _hand_over(self, child: "TCPSocket", waiter: Event) -> None:
        """accept() returns: allocate the child's file descriptor."""
        if self.proc is not None:
            from ..oskern.fdtable import SocketFile

            self.proc.fdtable.install(SocketFile(socket=child))
        waiter.succeed(child)

    def _process_ack(self, hdr: TCPHeader) -> None:
        if seq_gt(hdr.ack, self.snd_una):
            self._ack_advances(hdr)
        # Even without new data acked, FIN ack handling:
        elif self.state == TCPState.FIN_WAIT_1 and hdr.ack == self.snd_nxt:
            self.state = TCPState.FIN_WAIT_2
            self._stop_rto()
        elif self.state == TCPState.LAST_ACK and hdr.ack == self.snd_nxt:
            self._become_closed()

    def _ack_advances(self, hdr: TCPHeader) -> None:
        """``hdr`` acknowledges new data (its ack is past ``snd_una``)."""
        acked = self.write_queue.ack_up_to(hdr.ack)
        self.snd_una = hdr.ack
        self.snd_wnd = hdr.window
        # RTT sample from the echoed timestamp.
        if hdr.ts_ecr != 0 and acked:
            clock = self.stack.jiffies
            now_ts = clock.boot_offset + int(self.env._now * clock.hz) + self.ts_offset
            rtt_j = now_ts - hdr.ts_ecr
            if rtt_j >= 0:
                self._rtt_sample(rtt_j / clock.hz)
        # Congestion window growth (tracked only).
        if self.cwnd < self.ssthresh:
            self.cwnd += MSS
        else:
            self.cwnd += max(1, MSS * MSS // self.cwnd)
        if len(self.write_queue) == 0:
            self._stop_rto()
            if self.state == TCPState.FIN_WAIT_1 and hdr.ack == self.snd_nxt:
                self.state = TCPState.FIN_WAIT_2
            elif self.state == TCPState.LAST_ACK and hdr.ack == self.snd_nxt:
                self._become_closed()
        else:
            self._arm_rto()

    def _process_data(self, pkt: Packet) -> None:
        hdr = pkt.tcp
        assert hdr is not None
        if hdr.seq == self.rcv_nxt:
            self._queue_in_order(pkt)
            return
        if seq_gt(hdr.seq, self.rcv_nxt):
            self.ooo_queue.insert(self._skb(pkt))
        # Out of order: dup ack; old or duplicate data: re-ack.
        self._send_ctl(ACK, seq=self.snd_nxt)

    def _skb(self, pkt: Packet) -> SKBuff:
        """The received segment as a buffer; its source is the peer, so
        the socket's equal ``remote`` serves when it matches."""
        src = self.remote
        if src is None or src.ip is not pkt.src_ip or src.port != pkt.sport:
            src = Endpoint(pkt.src_ip, pkt.sport)
        return SKBuff(pkt.tcp.seq, pkt.payload_size, pkt.payload, src, self.stack.jiffies.jiffies)

    def _queue_in_order(self, pkt: Packet) -> None:
        """Data at ``rcv_nxt``: queue it, and whatever out-of-order run it
        completes, for the application; then ACK."""
        size = pkt.payload_size
        self.receive_queue.push(self._skb(pkt))
        self.rcv_nxt = (pkt.tcp.seq + size) % SEQ_MOD  # the buffer's end_seq
        self.bytes_received += size
        for run_skb in self.ooo_queue.pop_in_order(self.rcv_nxt):
            self.receive_queue.push(run_skb)
            self.rcv_nxt = run_skb.end_seq
            self.bytes_received += run_skb.size
        self._send_ctl(ACK, seq=self.snd_nxt)

    def _process_fin(self, hdr: TCPHeader) -> None:
        if self.fin_received:
            self._send_ctl(ACK, seq=self.snd_nxt)  # re-ack dup FIN
            return
        if not seq_leq(hdr.seq, self.rcv_nxt):
            return  # FIN beyond a gap; wait for retransmission
        self.fin_received = True
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self.receive_queue.push(SKBuff(seq=self.rcv_nxt, size=0, payload=EOF))
        if self.state == TCPState.ESTABLISHED:
            self.state = TCPState.CLOSE_WAIT
        elif self.state == TCPState.FIN_WAIT_2:
            self._become_closed()
        elif self.state == TCPState.FIN_WAIT_1:
            self.state = TCPState.CLOSE_WAIT  # simultaneous close simplified
        self._send_ctl(ACK, seq=self.snd_nxt)

    def _become_closed(self) -> None:
        self.state = TCPState.CLOSED
        self._stop_rto()
        if self.hashed:
            self.stack.tables.ehash_remove(self.flow_key)
            self.hashed = False

    # ---------------------------------------------------------------- RTT/RTO
    def _rtt_sample(self, rtt: float) -> None:
        self.rtt_samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = min(MAX_RTO, max(MIN_RTO, self.srtt + 4 * self.rttvar))

    def _arm_rto(self) -> None:
        """(Re)start the retransmission timer, due ``rto`` from now.

        Like Linux's ``mod_timer``, a re-arm moves the deadline instead
        of adding a timer.  Each arm takes an event id and records the
        key ``(deadline, eid)``; the timer fires under the heap key
        ``(deadline, NORMAL, eid)``, exactly where one heap entry per arm
        would have fired it.  A wake goes on the heap only when the
        socket has none pending or the new key sorts before it;
        :meth:`_rto_due` carries a wake on to a later key.
        """
        env = self.env
        env._eid = eid = env._eid + 1
        deadline = env._now + self.rto
        if deadline > env._tail:
            env._tail = deadline
        self._rto_key = key = (deadline, eid)
        self.rto_armed = True
        wake = self._rto_wake
        if wake is None or key < wake:
            self._rto_wake = key
            heappush(env._queue, (deadline, NORMAL, eid, (self._rto_due, key)))

    def _stop_rto(self) -> None:
        """Clear the retransmission timer (first step of migration)."""
        self.rto_armed = False

    def _rto_due(self, key: tuple[float, int]) -> None:
        """A wake of the retransmission timer pops at ``key``."""
        if key is not self._rto_wake:
            return  # an earlier wake replaced this one
        self._rto_wake = None
        if not self.rto_armed:
            return
        armed = self._rto_key
        if armed is key:
            self._rto_fire()
            return
        # Re-armed since with a later deadline: wake again at its key.
        self._rto_wake = armed
        heappush(self.env._queue, (armed[0], NORMAL, armed[1], (self._rto_due, armed)))

    def _rto_fire(self) -> None:
        if self.migrating:
            return
        head = self.write_queue.head()
        if head is None:
            if self.state == TCPState.SYN_SENT:
                self._send_ctl(SYN, seq=self.iss)
            elif self.state in (TCPState.FIN_WAIT_1, TCPState.LAST_ACK):
                self._send_ctl(FIN_ACK, seq=seq_add(self.snd_nxt, -1))
            elif self.state == TCPState.SYN_RCVD:
                self._send_ctl(SYN_ACK, seq=self.iss)
            else:
                self.rto_armed = False
                return
            self.retransmit_count += 1
        else:
            head.retransmits += 1
            self.retransmit_count += 1
            self._send_data(head)
            # Loss response: collapse the congestion window.
            self.ssthresh = max(2 * MSS, self.cwnd // 2)
            self.cwnd = MSS
        self.rto = min(MAX_RTO, self.rto * 2)
        self._arm_rto()

    # ---------------------------------------------------------------- output
    def _build_packet(self, flags: TCPFlags, seq: int, payload: Any, size: int) -> Packet:
        local = self.local
        remote = self.remote
        assert local is not None and remote is not None
        entry = self.dst_entry
        clock = self.stack.jiffies
        now = self.env._now
        ts_val = clock.boot_offset + int(now * clock.hz) + self.ts_offset
        pkt = new_packet(
            local.ip,
            remote.ip,
            PROTO_TCP,
            local.port,
            remote.port,
            size,
            payload,
            TCPHeader(seq, self.rcv_nxt, flags, self.rcv_wnd, ts_val, self.ts_recent),
            0,
            now,
            entry.ip if entry is not None else None,
        )
        pkt.checksum = transport_checksum(pkt)
        return pkt

    def _send_ctl(self, flags: TCPFlags, seq: int) -> None:
        self.stack.ip.ip_output(self._build_packet(flags, seq, None, 0))

    def _send_data(self, skb: SKBuff) -> None:
        pkt = self._build_packet(ACK, skb.seq, skb.payload, skb.size)
        self.stack.ip.ip_output(pkt)

    def __repr__(self) -> str:
        flow = f"{self.local}<->{self.remote}" if self.remote else f"{self.local}"
        return f"<TCPSocket {self.state} {flow}>"
