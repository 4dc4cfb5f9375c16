"""The migration daemon (``migd``) and the bulk migration channel.

``migd`` runs on every node and actually carries out migration requests
(Section II-B): the source-side engine streams precopy rounds and the
freeze image to the destination's migd, which stages incremental
updates, installs capture filters, and on the final freeze message
restores the process — address space, files, threads, sockets (with
jiffies-delta timestamp adjustment), reinjects captured packets and
adopts the process into its kernel.

Inbound staging is keyed by *session*: the ``session`` wire field when
present (``source>dest#pid``), else ``(source_ip, pid)``.  Either way
two sources migrating equal-pid processes to one destination stage into
separate buffers, and interleaved rounds/freezes from multiple
concurrent migrations cannot corrupt each other.

Bulk transfers are chunked onto the control plane so they occupy real
link time ahead of the request that completes them; acknowledgements
therefore arrive only after the data has crossed the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..des import Event
from ..oskern.memory import PageBatch
from ..oskern.node import Host
from .capture import CaptureService, install_capture_service
from .postcopy import PAGE_WIRE_BYTES, PostcopyFetcher, PostcopySource
from .sockmig import SocketStaging, disable_socket, reenable_socket, restore_sockets

__all__ = [
    "DEFAULT_RPC_TIMEOUT",
    "MIGD_PORT",
    "MigrationChannel",
    "MigrationDaemon",
    "install_migd",
]

MIGD_PORT = 7100

#: Fallback protocol-silence bound for bulk-channel requests.  Sessions
#: resolve a ``None`` rpc_timeout to this instead of waiting forever:
#: a destination that crashes or partitions mid-stream must surface as
#: an RpcError (and hence a rollback), never as a hung migration.
DEFAULT_RPC_TIMEOUT = 60.0


class MigrationChannel:
    """Source-side sender of sized bulk messages to a peer migd.

    One channel per migration session; every body (and padding chunk)
    it emits is tagged with the session id so the destination stages by
    session and traces/metrics can attribute wire bytes per session.
    """

    def __init__(
        self,
        source: Host,
        dest: Host,
        rpc_timeout: Optional[float] = None,
        session: Optional[str] = None,
    ) -> None:
        self.source = source
        self.dest = dest
        self.costs = source.kernel.costs
        self.rpc_timeout = rpc_timeout
        self.session = session
        self.bytes_sent = 0
        #: Optional page-stream compressor (attached by the session when
        #: its config asks for one); ``None`` bypasses the stage
        #: entirely so default traffic is accounted exactly as before.
        self.compressor = None
        #: Padding-chunk body, built once: chunks are opaque filler that
        #: nothing downstream reads, and they travel as a chunk train
        #: unless the wire needs real packets (faults, taps).
        self._chunk_body: dict = {"op": "chunk"}
        if session is not None:
            self._chunk_body["session"] = session
        metrics = source.env.metrics
        if metrics is not None and session is not None:
            metrics.gauge(f"channel.{session}.bytes_sent", fn=lambda: self.bytes_sent)

    def compress_pages(self, pages: PageBatch, raw_bytes: int) -> tuple[int, float]:
        """Wire size + CPU cost of a page batch under the attached
        compressor; ``(raw_bytes, 0.0)`` when the stage is disabled."""
        if self.compressor is None or not pages:
            return raw_bytes, 0.0
        return self.compressor.compress(pages)

    def _stream(self, body: dict, nbytes: int) -> int:
        """Tag ``body`` with the session id, emit the padding chunks
        that occupy the FIFO link ahead of it (one chunk train), account
        the bytes, and return the size of the final message that carries
        ``body``."""
        if self.session is not None:
            body.setdefault("session", self.session)
        chunk = self.costs.migration_chunk_bytes
        total = max(nbytes, 1)
        count = (total - 1) // chunk
        if count:
            self.source.control.send_train(
                self.dest.local_ip, MIGD_PORT, self._chunk_body, chunk, count
            )
        self.bytes_sent += total
        return total - count * chunk

    def request(self, body: dict, nbytes: int) -> Event:
        """Send ``body`` accounted as ``nbytes`` on the wire; the event
        succeeds with the reply once the destination has processed it,
        or fails with RpcError after the channel timeout."""
        remaining = self._stream(body, nbytes)
        return self.source.control.rpc(
            self.dest.local_ip,
            MIGD_PORT,
            body,
            size=remaining,
            timeout=self.rpc_timeout,
        )

    def send(self, body: dict, nbytes: int) -> None:
        """One-way sized message; FIFO link order guarantees the peer
        processes it before any later :meth:`request` completes."""
        remaining = self._stream(body, nbytes)
        self.source.control.send(self.dest.local_ip, MIGD_PORT, body, size=remaining)


@dataclass
class _Inbound:
    """Destination-side staging for one in-flight migration session."""

    key: Any
    pid: int
    name: str
    source_ip: Any
    session: Optional[str] = None
    #: Every page received so far at its newest version, ascending.
    staged_pages: PageBatch = field(default_factory=PageBatch.empty)
    staged_vmas: Optional[list] = None
    sockets: SocketStaging = field(default_factory=SocketStaging)
    capture_keys: list = field(default_factory=list)
    rounds_received: int = 0
    #: Set when an ``abort`` arrives; in-flight capture/restore work for
    #: this session checks it after every yield and backs out.
    aborted: bool = False


class MigrationDaemon:
    """Per-node migd: destination-side protocol handler."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.env = host.env
        self.capture: CaptureService = install_capture_service(host)
        self._inbound: dict[Any, _Inbound] = {}
        #: Source-side post-copy page stores, keyed like staging.
        self._postcopy: dict[Any, PostcopySource] = {}
        #: Destination-side pagefaultd instances, keyed like staging.
        self._fetchers: dict[Any, PostcopyFetcher] = {}
        self.migrations_completed = 0
        host.control.register(MIGD_PORT, self._handle)
        metrics = host.env.metrics
        if metrics is not None:
            metrics.gauge(
                f"migd.{host.name}.completed", fn=lambda: self.migrations_completed
            )
            metrics.gauge(
                f"migd.{host.name}.inflight", fn=lambda: len(self._inbound)
            )

    # -- protocol ------------------------------------------------------------
    def _handle(self, body: dict, src_ip, respond) -> None:
        op = body.get("op")
        if op == "chunk":
            return  # bulk padding: link time only
        if op == "begin":
            key = self._staging_key(body, src_ip)
            self._inbound[key] = _Inbound(
                key=key,
                pid=body["pid"],
                name=body["name"],
                source_ip=src_ip,
                session=body.get("session"),
            )
            if respond:
                respond({"ok": True})
        elif op == "round":
            st = self._staging(body, src_ip)
            st.staged_pages = st.staged_pages.overlay(
                PageBatch.of(body.get("pages", {})), in_place=True
            )
            if body.get("vmas") is not None:
                st.staged_vmas = body["vmas"]
            records = body.get("socket_records", [])
            st.sockets.apply_all(records)
            st.rounds_received += 1
            tr = self.env.tracer
            if tr.enabled:
                # Cross-node causal edge: the source engine put its
                # round span's id in the wire body under "cause".
                tr.event(
                    "migd.stage",
                    caused_by=body.get("cause"),
                    pid=body["pid"],
                    session=st.session,
                    phase="round",
                    records=len(records),
                    staged_pages=len(st.staged_pages),
                )
            if respond:
                respond({"ok": True})
        elif op == "capture":
            self.env.process(self._do_capture(body, src_ip, respond), name="migd-capture")
        elif op == "sockets":
            st = self._staging(body, src_ip)
            st.sockets.apply_all(body["records"])
            tr = self.env.tracer
            if tr.enabled:
                tr.event(
                    "migd.stage",
                    caused_by=body.get("cause"),
                    pid=body["pid"],
                    session=st.session,
                    phase="freeze",
                    records=len(body["records"]),
                )
            if respond:
                respond({"ok": True})
        elif op == "freeze":
            self.env.process(self._do_restore(body, src_ip, respond), name="migd-restore")
        elif op == "fetch":
            self.env.process(self._do_fetch(body, src_ip, respond), name="migd-fetch")
        elif op == "push":
            key = self._staging_key(body, src_ip)
            fetcher = self._fetchers.get(key)
            if fetcher is None or fetcher.failed:
                if respond:
                    respond(f"migd: no postcopy fetcher for {key!r}", error=True)
                return
            fetcher.install(body["pages"], fetched=False)
            tr = self.env.tracer
            if tr.enabled:
                tr.event(
                    "migd.postcopy.push",
                    caused_by=body.get("cause"),
                    pid=body["pid"],
                    session=fetcher.session,
                    pages=len(body["pages"]),
                    remaining=self._absent_remaining(fetcher),
                )
            if respond:
                respond({"ok": True})
        elif op == "postcopy_done":
            self.env.process(
                self._do_postcopy_done(body, src_ip, respond), name="migd-postcopy-done"
            )
        elif op == "postcopy_abort":
            fetcher = self._fetchers.pop(self._staging_key(body, src_ip), None)
            if fetcher is not None:
                fetcher.fail()
            if respond:
                respond({"ok": True})
        elif op == "abort":
            self._abort(self._staging_key(body, src_ip))
            if respond:
                respond({"ok": True})
        else:
            if respond:
                respond(f"migd: unknown op {op!r}", error=True)

    def _staging_key(self, body: dict, src_ip) -> Any:
        """Session id string when present, else ``(source_ip, pid)`` —
        never the bare pid, so equal pids from different sources (or
        different routes) cannot collide."""
        session = body.get("session")
        if session is not None:
            return session
        return (str(src_ip), body["pid"])

    def _staging(self, body: dict, src_ip) -> _Inbound:
        key = self._staging_key(body, src_ip)
        try:
            return self._inbound[key]
        except KeyError:
            raise RuntimeError(
                f"migd on {self.host.name}: no inbound migration for pid "
                f"{body['pid']} (key {key!r})"
            ) from None

    def inbound_for(self, pid: int) -> list[_Inbound]:
        """All in-flight staging buffers for a pid (test/debug helper)."""
        return [st for st in self._inbound.values() if st.pid == pid]

    def fail_session(self, key: Any) -> None:
        """Fault-injection entry point: mark a session's staging failed
        *without* discarding it.

        Unlike :meth:`_abort` (driven by the source's rollback, which
        wants the staging gone), the buffer stays registered so the
        still-inbound freeze request finds it, sees ``aborted`` and
        backs out with an error reply — exactly the wire behaviour of a
        migd that died mid-session.
        """
        st = self._inbound.get(key)
        if st is None:
            return
        st.aborted = True
        if st.capture_keys:
            self.capture.disable(st.capture_keys)
            st.capture_keys.clear()
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "migd.fail", pid=st.pid, session=st.session, node=self.host.name
            )

    def _abort(self, key: Any) -> None:
        st = self._inbound.pop(key, None)
        if st is None:
            return
        st.aborted = True
        if st.capture_keys:
            self.capture.disable(st.capture_keys)
            st.capture_keys.clear()
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "migd.abort", pid=st.pid, session=st.session, node=self.host.name
            )

    # -- post-copy ----------------------------------------------------------------
    @staticmethod
    def _absent_remaining(fetcher: PostcopyFetcher) -> int:
        return fetcher.proc.address_space.absent_count

    def register_postcopy(self, key: Any, store: PostcopySource) -> None:
        """Source side: expose a page store for demand fetches."""
        self._postcopy[key] = store

    def unregister_postcopy(self, key: Any) -> None:
        self._postcopy.pop(key, None)

    def fail_postcopy(self, key: Any) -> None:
        """Fault-injection entry point: fail a post-copy session's
        source store, so demand fetches earn error replies and the
        engine's push loop aborts at its next batch boundary."""
        store = self._postcopy.get(key)
        if store is None:
            return
        store.failed = True
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "migd.postcopy.fail", session=store.session, node=self.host.name
            )

    def _do_fetch(self, body: dict, src_ip, respond):
        """Source side: serve a destination page fault from the store."""
        key = self._staging_key(body, src_ip)
        store = self._postcopy.get(key)
        if store is None:
            if respond:
                respond(f"migd: no postcopy store for {key!r}", error=True)
            return
        if store.failed:
            if respond:
                respond("migd: postcopy source failed", error=True)
            return
        pages = store.serve(body["start"], body["end"])
        costs = self.host.kernel.costs
        yield self.env.timeout(
            costs.postcopy_serve_cost * max(1, len(pages))
            + costs.page_dump_cost * len(pages)
        )
        if store.failed:
            if respond:
                respond("migd: postcopy source failed", error=True)
            return
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "migd.postcopy.serve",
                caused_by=body.get("cause"),
                pid=body["pid"],
                session=store.session,
                start=body["start"],
                pages=len(pages),
                remaining=store.remaining_pages,
            )
        if respond:
            respond({"pages": pages}, size=max(1, len(pages) * PAGE_WIRE_BYTES))

    def _do_postcopy_done(self, body: dict, src_ip, respond):
        """Destination side: confirm every page arrived, report stats."""
        key = self._staging_key(body, src_ip)
        fetcher = self._fetchers.get(key)
        if fetcher is None:
            if respond:
                respond(f"migd: no postcopy fetcher for {key!r}", error=True)
            return
        # Belt and braces: FIFO ordering means all pushes (and any fetch
        # replies sent earlier) already arrived, but an in-flight demand
        # fetch could still be waiting on the source — wait it out.
        if fetcher.proc.address_space.has_absent:
            yield fetcher.all_resident
        if fetcher.failed:
            if respond:
                respond("migd: postcopy fetcher failed", error=True)
            return
        self._fetchers.pop(key, None)
        fetcher.proc.page_fault_handler = None
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "migd.postcopy.done",
                pid=fetcher.pid,
                session=fetcher.session,
                faults=fetcher.faults,
                fetched=fetcher.fetched_pages,
                pushed=fetcher.pushed_pages,
                fault_wait=fetcher.fault_wait,
            )
        if respond:
            respond(
                {
                    "ok": True,
                    "faults": fetcher.faults,
                    "fetched_pages": fetcher.fetched_pages,
                    "pushed_pages": fetcher.pushed_pages,
                    "fault_wait": fetcher.fault_wait,
                }
            )

    # -- capture enable ------------------------------------------------------------
    def _do_capture(self, body: dict, src_ip, respond):
        st = self._staging(body, src_ip)
        keys = body["keys"]
        costs = self.host.kernel.costs
        yield self.env.timeout(costs.capture_install_cost * max(1, len(keys)))
        if st.aborted:
            # An abort raced the filter install: enable nothing.
            tr = self.env.tracer
            if tr.enabled:
                tr.event(
                    "migd.capture.skipped", pid=st.pid, session=st.session, keys=len(keys)
                )
            if respond:
                respond("migd: session aborted during capture install", error=True)
            return
        self.capture.enable(keys)
        st.capture_keys.extend(keys)
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "migd.capture.enable", pid=body["pid"], session=st.session, keys=len(keys)
            )
        if respond:
            respond({"ok": True, "installed": len(keys)})

    # -- the freeze-phase restore ---------------------------------------------------
    def _do_restore(self, body: dict, src_ip, respond):
        from ..blcr import apply_image_state

        pid = body["pid"]
        st = self._staging(body, src_ip)
        tr = self.env.tracer
        restore_span = (
            tr.begin(
                "migd.restore",
                caused_by=body.get("cause"),
                pid=pid,
                session=st.session,
            )
            if tr.enabled
            else 0
        )
        image = body["image"]
        proc = body["proc"]
        originals = body.get("originals") or {}
        local_rewrites = body.get("local_rewrites") or {}
        costs = self.host.kernel.costs
        kernel = self.host.kernel

        # Apply incremental + final memory state.  A post-copy freeze
        # declares the not-yet-transferred extents; they are exempt from
        # the completeness check and marked non-resident for pagefaultd.
        postcopy = body.get("postcopy")
        apply_image_state(
            proc,
            image,
            staged_pages=st.staged_pages,
            staged_vmas=st.staged_vmas,
            absent_extents=postcopy["absent"] if postcopy else None,
        )
        # The restored space holds the contents now.
        st.staged_pages = PageBatch.empty()
        n_final_pages = len(image.section("pages").payload) if image.has_section("pages") else 0
        yield self.env.timeout(costs.page_dump_cost * n_final_pages)
        if st.aborted:
            # The source rolled back while memory state was being
            # applied; no sockets are restored yet, nothing to undo.
            self._back_out_restore(st, None, proc, respond, restore_span)
            return

        # Restore sockets with the jiffies-delta timestamp adjustment.
        jiffies_delta = kernel.jiffies.jiffies - image.source_jiffies
        if not body.get("adjust_timestamps", True):
            jiffies_delta = 0  # ablation: pretend the clocks agree
        restored = restore_sockets(
            kernel.stack,
            proc,
            st.sockets,
            jiffies_delta,
            local_ip_rewrite=local_rewrites,
            originals=originals,
        )
        restore_cost = 0.0
        for sock in restored:
            from ..tcpip import TCPSocket

            restore_cost += (
                costs.tcp_restore_cost
                if isinstance(sock, TCPSocket)
                else costs.udp_restore_cost
            )
        yield self.env.timeout(restore_cost)
        if st.aborted:
            self._back_out_restore(st, restored, proc, respond, restore_span)
            return

        # Reinject captured packets through okfn() (Section V-B).
        reinjected = 0
        keys = list(st.capture_keys)
        reinject_cpu = sum(self.capture.reinject_cost(k) for k in keys)
        if reinject_cpu:
            yield self.env.timeout(reinject_cpu)
            if st.aborted:
                self._back_out_restore(st, restored, proc, respond, restore_span)
                return
        captured_total = sum(self.capture.queue_length(k) for k in keys)
        for key in keys:
            reinjected += self.capture.reinject(key)
        if tr.enabled:
            tr.event(
                "capture.reinject",
                parent=restore_span,
                caused_by=restore_span,
                pid=pid,
                session=st.session,
                captured=captured_total,
                reinjected=reinjected,
            )

        # Post-copy: install pagefaultd *before* the thaw, so the very
        # first workload write to a non-resident page demand-fetches
        # instead of crashing.
        if postcopy:
            fetcher = PostcopyFetcher(
                host=self.host,
                source_ip=st.source_ip,
                session=st.session,
                pid=pid,
                proc=proc,
                rpc_timeout=postcopy.get("rpc_timeout"),
            )
            self._fetchers[st.key] = fetcher
            if tr.enabled:
                tr.event(
                    "migd.postcopy.arm",
                    parent=restore_span,
                    caused_by=restore_span,
                    pid=pid,
                    session=st.session,
                    absent=proc.address_space.absent_count,
                )

        # Adopt the process and resume execution on this node.
        kernel.adopt_process(proc)
        proc.thaw()
        if tr.enabled:
            tr.event(
                "migd.thaw",
                caused_by=restore_span,
                pid=pid,
                session=st.session,
                node=self.host.name,
            )
            tr.end(
                restore_span,
                restored_sockets=len(restored),
                jiffies_delta=jiffies_delta,
            )
        self._inbound.pop(st.key, None)
        self.migrations_completed += 1
        if respond:
            respond(
                {
                    "ok": True,
                    "thawed_at": self.env.now,
                    "captured": captured_total,
                    "reinjected": reinjected,
                    "jiffies_delta": jiffies_delta,
                }
            )

    def _back_out_restore(self, st: _Inbound, restored, proc, respond, restore_span):
        """An abort raced the in-flight restore: never adopt the process,
        and hand any already-restored sockets back to the source stack
        (the source's rollback has re-registered the process there)."""
        if restored:
            source_stack = proc.kernel.stack
            for sock in restored:
                disable_socket(sock)  # out of this node's tables
                sock.stack = source_stack
                reenable_socket(sock)
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "migd.restore.aborted",
                pid=st.pid,
                session=st.session,
                node=self.host.name,
                restored_sockets=len(restored or ()),
            )
            tr.end(restore_span, aborted=True)
        if respond:
            respond("migd: session aborted during restore", error=True)


def install_migd(host: Host) -> MigrationDaemon:
    """Install (or fetch) the migration daemon on a host."""
    daemon = host.daemons.get("migd")
    if daemon is None:
        daemon = MigrationDaemon(host)
        host.daemons["migd"] = daemon
    return daemon
