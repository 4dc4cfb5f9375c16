"""The process live-migration engine (Sections III-A, V-A).

Precopy: a helper thread transfers the memory map and all pages, then
loops — tracking dirty pages and address-space changes (and, with the
incremental-collective strategy, socket deltas) — with the loop timeout
halving each iteration.  When the timeout reaches the freeze threshold
(20 ms in the paper), the application threads are signalled for final
checkpointing: they abandon any in-flight syscalls (leaving socket
backlogs/prequeues empty), synchronize on a barrier, and the leader
transfers the final dirty pages, open-file table, socket state (per the
configured strategy) and per-thread execution context.  The destination
migd restores everything, reinjets captured packets and resumes the
process; only this freeze phase is downtime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from ..blcr import CheckpointImage, dump_file_table, dump_pages, dump_thread_context
from ..blcr.checkpoint import VMA_RECORD_BYTES
from ..des import Process
from ..oskern import RpcError, SimProcess
from ..oskern.memory import PageBatch
from ..oskern.node import Host
from .compress import COMPRESSION_MODES
from .migd import install_migd
from .postcopy import PAGE_WIRE_BYTES, PostcopySource
from .session import MigrationSession, SessionState
from .strategies import SocketMigrationStrategy, make_strategy
from .tracking import VMATracker

__all__ = ["LiveMigrationConfig", "LiveMigrationEngine", "migrate_process"]

#: Auto-convergence: a round is "hot" when the bytes dirtied over the
#: inter-round interval exceed this fraction of the bytes the channel
#: moved in the same interval (QEMU's auto-converge criterion: a
#: workload re-dirtying more than half of what each round ships never
#: converges by iterating alone).
CONVERGE_HOT_FRACTION = 0.5
#: Consecutive hot rounds before a throttle step is applied.
CONVERGE_ROUNDS = 2
#: First throttle step (fraction of CPU taken away).
CONVERGE_INITIAL_THROTTLE = 0.2
#: Increment per further step.
CONVERGE_STEP = 0.1
#: Hard cap on the fraction taken away.
CONVERGE_MAX_THROTTLE = 0.99


@dataclass(frozen=True)
class LiveMigrationConfig:
    """Tunables of the live-migration mechanism."""

    strategy: Union[str, SocketMigrationStrategy] = "incremental-collective"
    #: First precopy round's loop timeout (seconds).
    initial_round_timeout: float = 0.32
    #: Multiplier applied to the loop timeout each round.
    timeout_decay: float = 0.5
    #: Freeze once the loop timeout drops to/below this (paper: 20 ms).
    freeze_threshold: float = 0.020
    #: Safety bound on precopy rounds.
    max_rounds: int = 16
    #: Packet-loss prevention on/off (Section III-B).
    capture_enabled: bool = True
    #: Signal-based (True) vs. kernel-initiated (False) checkpointing.
    signal_based: bool = True
    #: With kernel-initiated checkpointing, whether the backlog and
    #: prequeue are dumped too.  False models a naive implementation
    #: that handles only the three main queues — queued packets are
    #: then silently dropped and TCP must recover by retransmission.
    dump_user_queues: bool = True
    #: Negative control: skip the jiffies-delta timestamp adjustment on
    #: restore (Section V-C.1) — TCP timestamps then jump, breaking RTT
    #: estimation and (when the destination booted later) PAWS checks.
    adjust_timestamps: bool = True
    #: Give up on the destination after this much protocol silence and
    #: roll the process back on the source.  ``None`` falls back to the
    #: channel's :data:`~repro.core.migd.DEFAULT_RPC_TIMEOUT` — a
    #: migration never waits forever, so a crash or partition
    #: mid-stream aborts instead of hanging.
    rpc_timeout: Optional[float] = 30.0
    #: Migration mode: classic ``precopy``; ``postcopy`` (move the
    #: execution context first, then demand-fetch / background-push the
    #: pages); or ``hybrid`` (warm-up precopy round(s), then switch).
    mode: str = "precopy"
    #: Full precopy rounds a hybrid migration runs before switching to
    #: the post-copy tail.
    hybrid_warmup_rounds: int = 1
    #: Page-stream compression on the channel: ``none`` | ``zero-page``
    #: | ``xbzrle`` (delta against the previous round's version map).
    compression: str = "none"
    #: Auto-convergence (precopy only): when the per-round dirty rate
    #: exceeds :data:`CONVERGE_HOT_FRACTION` of the channel's effective
    #: bandwidth for :data:`CONVERGE_ROUNDS` consecutive rounds,
    #: throttle the workload's CPU share in steps so the dirty rate
    #: falls and the precopy loop provably converges.
    auto_converge: bool = False

    def with_overrides(self, **kw) -> "LiveMigrationConfig":
        return replace(self, **kw)


class LiveMigrationEngine:
    """Source-side driver of one :class:`MigrationSession`.

    The session owns the migration's identity, channel, report and
    rollback path; the engine advances the protocol (precopy rounds,
    freeze, image transfer) and the session's state machine."""

    def __init__(
        self,
        source: Host,
        dest: Host,
        proc: SimProcess,
        config: Optional[LiveMigrationConfig] = None,
    ) -> None:
        if proc.kernel is not source.kernel:
            raise ValueError(f"{proc} does not run on {source.name}")
        if source is dest:
            raise ValueError("source and destination are the same node")
        self.source = source
        self.dest = dest
        self.proc = proc
        self.config = config or LiveMigrationConfig()
        if self.config.mode not in ("precopy", "postcopy", "hybrid"):
            raise ValueError(f"unknown migration mode {self.config.mode!r}")
        if self.config.compression not in COMPRESSION_MODES:
            raise ValueError(
                f"unknown compression mode {self.config.compression!r}"
            )
        if proc.stranded_pages:
            raise ValueError(
                f"{proc} has {proc.stranded_pages} absent pages that no "
                "post-copy will fetch; it cannot migrate"
            )
        self.env = source.env
        self.costs = source.kernel.costs
        self.source_migd = install_migd(source)
        install_migd(dest)
        from .translation import install_transd

        install_transd(source)
        install_transd(dest)
        self.strategy = make_strategy(self.config.strategy)
        self.session = MigrationSession(
            source,
            dest,
            proc,
            self.strategy,
            capture_enabled=self.config.capture_enabled,
            signal_based=self.config.signal_based,
            dump_user_queues=self.config.dump_user_queues,
            rpc_timeout=self.config.rpc_timeout,
            mode=self.config.mode,
            compression=self.config.compression,
        )
        self.report = self.session.report
        self.channel = self.session.channel
        self.ctx = self.session.ctx
        self._vma_tracker = VMATracker()
        #: Set once a full-copy round has reached the destination; the
        #: freeze dump may be incremental only after this (a config that
        #: runs zero rounds used to ship a dirty-only freeze image and
        #: leave the destination with holes).
        self._full_copy_done = False
        #: Auto-convergence state: current throttle fraction taken away
        #: and when the current level was applied.
        self._throttle = 0.0
        self._throttle_since = 0.0
        #: Causal id of this migration's ``mig.start`` record (0 when
        #: tracing is off); the hierarchy root for the engine's phase
        #: spans.
        self._causal_root = 0

    # -- public API -----------------------------------------------------------
    def start(self) -> Process:
        """Spawn the migration as a DES process; its value is the report."""
        return self.env.process(self._run(), name=f"migrate-{self.proc.pid}")

    # -- the protocol ------------------------------------------------------------
    def _run(self):
        cfg = self.config
        costs = self.costs
        proc = self.proc
        space = proc.address_space
        report = self.report
        report.started_at = self.env.now
        sid = self.session.label
        tr = self.env.tracer
        if tr.enabled:
            # Causal root of the whole migration: chains back to the
            # conductor decision that launched it (when one seeded
            # ``session.causal_ref``) and parents every phase span.
            self._causal_root = tr.event(
                "mig.start",
                caused_by=self.session.causal_ref,
                ref=True,
                pid=proc.pid,
                session=sid,
                name=proc.name,
                strategy=self.strategy.name,
                source=self.source.name,
                dest=self.dest.name,
                n_threads=len(proc.threads),
            )
            self.session.causal_ref = self._causal_root

        try:
            # Live-checkpoint request: signal, clone the helper thread,
            # application threads return from the handler (Fig. 3).
            helper = proc.clone_thread()
            yield self.env.timeout(costs.signal_cost * len(proc.threads))

            yield self.channel.request(
                {
                    "op": "begin",
                    "pid": proc.pid,
                    "name": proc.name,
                    "nthreads": len(proc.threads) - 1,  # helper does not migrate
                },
                256,
            )
            self.session.transition(SessionState.PRECOPY)
            postcopy_mode = cfg.mode in ("postcopy", "hybrid")
            if tr.enabled and (
                cfg.mode != "precopy"
                or cfg.compression != "none"
                or cfg.auto_converge
            ):
                tr.event(
                    "mig.mode",
                    pid=proc.pid,
                    session=sid,
                    mode=cfg.mode,
                    compression=cfg.compression,
                    auto_converge=cfg.auto_converge,
                )

            # ---- precopy loop (helper thread, app keeps running) ----
            # Pure post-copy skips the loop entirely; hybrid runs its
            # warm-up round(s) then breaks straight into the freeze.
            if cfg.mode == "postcopy":
                effective_max_rounds = 0
            elif cfg.mode == "hybrid":
                effective_max_rounds = max(1, cfg.hybrid_warmup_rounds)
            else:
                effective_max_rounds = cfg.max_rounds
            round_timeout = cfg.initial_round_timeout
            hot_rounds = 0
            prev_round_start = None
            prev_nbytes = 0
            while round_timeout > cfg.freeze_threshold and report.precopy_rounds < effective_max_rounds:
                round_start = self.env.now
                first = report.precopy_rounds == 0
                round_span = (
                    tr.begin(
                        "mig.precopy.round",
                        parent=self._causal_root,
                        caused_by=self.session.causal_ref,
                        pid=proc.pid,
                        session=sid,
                        round=report.precopy_rounds,
                    )
                    if tr.enabled
                    else 0
                )

                vdiff = self._vma_tracker.scan(space)
                pages, page_bytes = dump_pages(proc, dirty_only=not first)
                sock_records, sock_cpu = self.strategy.precopy_records(self.ctx)
                wire_page_bytes, compress_cpu = self.channel.compress_pages(
                    pages, page_bytes
                )

                cpu = (
                    self._vma_tracker.compare_cost(space, costs.vma_compare_cost)
                    + costs.pte_scan_cost * space.total_pages
                    + costs.page_dump_cost * len(pages)
                    + sock_cpu
                    + compress_cpu
                    + costs.round_overhead
                )
                yield self.env.timeout(cpu)

                vma_bytes = VMA_RECORD_BYTES * len(space.vmas) if first else vdiff.record_bytes()
                sock_bytes = sum(r.nbytes for r in sock_records)
                nbytes = wire_page_bytes + vma_bytes + sock_bytes
                round_body = {
                    "op": "round",
                    "pid": proc.pid,
                    "pages": pages,
                    "vmas": self._vma_tracker.current_map(space)
                    if (first or not vdiff.empty)
                    else None,
                    "socket_records": sock_records,
                }
                if tr.enabled:
                    # The cross-node causal edge travels in the wire
                    # body (message size is the explicit nbytes, so the
                    # extra key never affects timing).
                    round_body["cause"] = round_span
                yield self.channel.request(round_body, nbytes)
                if first:
                    self._full_copy_done = True
                report.bytes.precopy_pages += wire_page_bytes
                report.bytes.precopy_vmas += vma_bytes
                report.bytes.precopy_sockets += sock_bytes
                report.compression_saved_bytes += page_bytes - wire_page_bytes
                report.precopy_rounds += 1
                if tr.enabled:
                    # The span covers the round's work (scan + dump +
                    # transfer); the idle wait up to the loop timeout is
                    # pacing, not work, and stays outside it.
                    tr.end(
                        round_span,
                        dirty_pages=len(pages),
                        page_bytes=wire_page_bytes,
                        vma_bytes=vma_bytes,
                        sock_bytes=sock_bytes,
                        sock_records=len(sock_records),
                    )
                    if self.channel.compressor is not None:
                        tr.event(
                            "mig.compress.round",
                            pid=proc.pid,
                            session=sid,
                            round=report.precopy_rounds - 1,
                            raw_bytes=page_bytes,
                            wire_bytes=wire_page_bytes,
                            saved_bytes=page_bytes - wire_page_bytes,
                        )

                # Auto-convergence: a round that dirtied more than
                # ``CONVERGE_HOT_FRACTION`` of what the channel moved
                # over the same inter-round interval is "hot" (the
                # residual set is not shrinking); K consecutive hot
                # rounds escalate the workload throttle one step.
                if cfg.auto_converge and cfg.mode == "precopy" and not first:
                    interval = round_start - prev_round_start
                    dirty_rate = page_bytes / interval if interval > 0 else 0.0
                    bandwidth = prev_nbytes / interval if interval > 0 else 0.0
                    if dirty_rate > CONVERGE_HOT_FRACTION * bandwidth:
                        hot_rounds += 1
                    else:
                        hot_rounds = 0
                    if hot_rounds >= CONVERGE_ROUNDS:
                        hot_rounds = 0
                        self._escalate_throttle(dirty_rate, bandwidth)
                prev_round_start = round_start
                prev_nbytes = nbytes
                # The destination has staged this round's batch; holding
                # it through the pacing wait would keep it alive next
                # to the next round's dump.
                del pages, round_body

                if report.precopy_rounds >= effective_max_rounds and cfg.mode == "hybrid":
                    break  # switch point: no pacing wait before the freeze
                elapsed = self.env.now - round_start
                if elapsed < round_timeout:
                    yield self.env.timeout(round_timeout - elapsed)
                round_timeout *= cfg.timeout_decay

            # Throttled workloads get their full CPU share back before
            # the freeze: downtime must not be measured against an
            # artificially slowed application, and the destination
            # adopts the process unthrottled.
            self._release_throttle()

            # ---- freeze phase ----
            yield self.env.timeout(costs.signal_cost * (len(proc.threads) - 1))
            proc.deliver_checkpoint_signal()
            if cfg.signal_based:
                # Returning to userspace released socket locks and
                # drained prequeues; make the invariant explicit.
                for sock in proc.sockets():
                    sock.force_userspace()
            proc.freeze()
            report.frozen_at = self.env.now
            self.session.transition(SessionState.FREEZE)
            freeze_ref = 0
            if tr.enabled:
                freeze_ref = tr.event(
                    "mig.freeze.enter",
                    caused_by=self.session.causal_ref,
                    ref=True,
                    pid=proc.pid,
                    session=sid,
                )
                self.ctx.causal_ref = freeze_ref
            barrier_span = (
                tr.begin(
                    "mig.freeze.barrier",
                    parent=self._causal_root,
                    caused_by=freeze_ref,
                    pid=proc.pid,
                    session=sid,
                    threads=len(proc.threads),
                )
                if tr.enabled
                else 0
            )
            yield self.env.timeout(costs.barrier_cost * len(proc.threads))
            if tr.enabled:
                tr.end(barrier_span)

            # If any of this process's in-cluster peers migrated earlier,
            # this host's transd holds the filters rewriting our traffic
            # to them; those filters move with the process, and must be
            # active on the destination *before* capture starts so that
            # captured packets match the socket's logical addresses.
            yield from self._relocate_peer_rules()

            # Socket migration per the configured strategy.
            yield from self.strategy.freeze_sockets(self.ctx)

            # Leader thread: final memory delta + file table + threads.
            self._vma_tracker.scan(space)
            postcopy_store: Optional[PostcopySource] = None
            if postcopy_mode:
                # Post-copy freeze ships the page *map* only: the
                # contents stay behind in a source-side store — every
                # still-dirty page after a full copy, else (pure
                # post-copy) every mapped page, since a process that
                # arrived by migration holds clean pages the new
                # destination has never seen.
                store_pages, _ = dump_pages(proc, dirty_only=self._full_copy_done)
                absent_extents = [(start, end) for start, end, _ in store_pages.runs()]
                pages, page_bytes = PageBatch.empty(), 0
                dump_cpu = costs.pte_scan_cost * space.total_pages
                postcopy_store = PostcopySource(sid, store_pages, absent_extents)
            else:
                # At least one full-copy round must have reached the
                # destination for an incremental freeze dump to restore
                # (a zero-round config used to ship a dirty-only image
                # and leave the destination with unmapped holes).
                pages, page_bytes = dump_pages(
                    proc, dirty_only=self._full_copy_done
                )
                dump_cpu = costs.page_dump_cost * len(pages)
            wire_page_bytes, compress_cpu = self.channel.compress_pages(
                pages, page_bytes
            )
            files, file_bytes = dump_file_table(proc)
            proc.reap_thread(helper)
            threads, thread_bytes = dump_thread_context(proc)
            vma_map = self._vma_tracker.current_map(space)
            # The restore replaces the process's space; the engine must
            # not keep the source's page stores alive past it.
            del space
            vma_bytes = VMA_RECORD_BYTES * len(vma_map)
            yield self.env.timeout(
                dump_cpu
                + compress_cpu
                + costs.file_entry_cost * len(files)
                + costs.thread_ctx_cost * len(threads)
            )

            image = CheckpointImage(
                pid=proc.pid,
                name=proc.name,
                source_node=self.source.name,
                source_jiffies=self.source.kernel.jiffies.jiffies,
                nthreads=len(proc.threads),
            )
            image.add_section("memory_map", vma_bytes, vma_map)
            image.add_section("pages", wire_page_bytes, pages)
            image.add_section("files", file_bytes, files)
            image.add_section("threads", thread_bytes, threads)

            report.bytes.freeze_pages += wire_page_bytes
            report.bytes.freeze_vmas += vma_bytes
            report.bytes.freeze_files += file_bytes
            report.bytes.freeze_threads += thread_bytes
            report.compression_saved_bytes += page_bytes - wire_page_bytes
            image_ref = 0
            if tr.enabled:
                image_ref = tr.event(
                    "mig.freeze.image",
                    parent=self._causal_root,
                    caused_by=freeze_ref,
                    ref=True,
                    pid=proc.pid,
                    session=sid,
                    page_bytes=wire_page_bytes,
                    vma_bytes=vma_bytes,
                    file_bytes=file_bytes,
                    thread_bytes=thread_bytes,
                    dirty_pages=len(pages),
                )

            # The process leaves this kernel: no residual dependencies.
            self.source.kernel.remove_process(proc)
            self.session.transition(SessionState.RESTORING)

            freeze_body = {
                "op": "freeze",
                "pid": proc.pid,
                "image": image,
                "proc": proc,
                "originals": self.ctx.originals,
                "local_rewrites": {self.source.local_ip: self.dest.local_ip},
                "adjust_timestamps": cfg.adjust_timestamps,
            }
            if postcopy_store is not None:
                # The store must be servable before the freeze message
                # is even sent: the destination thaws on receipt, and
                # its first demand fetch may arrive while this engine
                # is still waiting on the freeze reply.
                self.source_migd.register_postcopy(sid, postcopy_store)
                freeze_body["postcopy"] = {
                    "absent": absent_extents,
                    "rpc_timeout": cfg.rpc_timeout,
                }

            transfer_span = (
                tr.begin(
                    "mig.freeze.transfer",
                    parent=self._causal_root,
                    caused_by=image_ref,
                    pid=proc.pid,
                    session=sid,
                    nbytes=image.total_bytes,
                )
                if tr.enabled
                else 0
            )
            if tr.enabled:
                freeze_body["cause"] = transfer_span
            reply = yield self.channel.request(freeze_body, image.total_bytes)
            report.thawed_at = reply["thawed_at"]
            report.packets_captured = reply["captured"]
            report.packets_reinjected = reply["reinjected"]
            report.jiffies_delta = reply["jiffies_delta"]
            if tr.enabled:
                tr.end(transfer_span)

            if postcopy_store is not None:
                # ---- post-copy tail: the app already runs on the
                # destination; push the residual set and serve faults.
                self.session.transition(SessionState.POSTCOPY)
                if tr.enabled:
                    self.session.causal_ref = tr.event(
                        "mig.postcopy.enter",
                        caused_by=self.session.causal_ref,
                        ref=True,
                        pid=proc.pid,
                        session=sid,
                        residual_pages=postcopy_store.remaining_pages,
                    )
                yield from self._postcopy_push(postcopy_store)
                self.source_migd.unregister_postcopy(sid)

            report.finished_at = self.env.now
            report.success = True
            self.session.transition(SessionState.DONE)
            if tr.enabled:
                tr.event(
                    "mig.complete",
                    caused_by=self.session.causal_ref,
                    pid=proc.pid,
                    session=sid,
                    rounds=report.precopy_rounds,
                    freeze_time=report.freeze_time,
                    captured=report.packets_captured,
                    reinjected=report.packets_reinjected,
                )
            metrics = self.env.metrics
            if metrics is not None:
                if report.freeze_time is not None:
                    metrics.histogram("mig.freeze_time").observe(report.freeze_time)
                if self.channel.compressor is not None:
                    cst = self.channel.compressor.stats
                    metrics.counter("mig.compress.pages").inc(cst.pages)
                    metrics.counter("mig.compress.saved_bytes").inc(cst.saved_bytes)
                    metrics.counter("mig.compress.zero_pages").inc(cst.zero_pages)
                    metrics.counter("mig.compress.delta_pages").inc(cst.delta_pages)
            return report

        except RpcError as exc:
            # The destination (or a transd peer) stopped answering:
            # abort and roll the process back on the source.  Clients
            # see at most an RTO-length blip while the sockets were
            # unhashed; nothing is lost permanently.
            report.error = f"aborted: {exc}"
            return self._abort(report, crashed=False)
        except Exception as exc:
            # Defensive: an engine bug must not leave the session
            # non-terminal and the process in limbo — same terminal
            # semantics as a protocol abort, reported instead of raised.
            report.error = f"crashed: {type(exc).__name__}: {exc}"
            return self._abort(report, crashed=True)

    def _abort(self, report, crashed: bool):
        """Common terminal-failure path for both except handlers."""
        proc = self.proc
        sid = self.session.label
        tr = self.env.tracer
        report.finished_at = self.env.now
        report.success = False
        self._release_throttle()
        if self.session.state is SessionState.POSTCOPY:
            # The execution context already moved: there is no source
            # to roll back to.  Fail the destination's pagefaultd (so
            # blocked writers raise instead of hanging) and leave the
            # process running there with whatever pages it has.
            self.source_migd.unregister_postcopy(sid)
            self.channel.send({"op": "postcopy_abort", "pid": proc.pid}, 64)
            self.session.transition(SessionState.ABORTED)
        else:
            self.session.rollback()
        if tr.enabled:
            fields = dict(
                pid=proc.pid,
                session=sid,
                error=report.error,
                frozen=report.frozen_at is not None,
            )
            if crashed:
                fields["crashed"] = True
            tr.event(
                "mig.abort",
                caused_by=self.session.causal_ref,
                **fields,
            )
        return report

    # -- auto-convergence ------------------------------------------------------
    def _escalate_throttle(self, dirty_rate: float, bandwidth: float) -> None:
        """One throttle step: take a larger CPU fraction away from the
        workload so its dirty rate falls below the channel bandwidth."""
        report = self.report
        now = self.env.now
        if self._throttle > 0.0:
            report.throttled_seconds += (now - self._throttle_since) * self._throttle
            new = min(CONVERGE_MAX_THROTTLE, self._throttle + CONVERGE_STEP)
        else:
            new = min(CONVERGE_MAX_THROTTLE, CONVERGE_INITIAL_THROTTLE)
        self._throttle = new
        self._throttle_since = now
        self.source.kernel.cpu.set_throttle(self.proc, 1.0 - new)
        report.throttle_steps += 1
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "mig.autoconverge.throttle",
                caused_by=self._causal_root,
                pid=self.proc.pid,
                session=self.session.label,
                round=report.precopy_rounds - 1,
                throttle=new,
                dirty_rate=dirty_rate,
                bandwidth=bandwidth,
            )

    def _release_throttle(self) -> None:
        """Give the workload its full CPU share back (no-op when the
        throttle never engaged, so the default path is untouched)."""
        if self._throttle <= 0.0:
            return
        report = self.report
        report.throttled_seconds += (
            self.env.now - self._throttle_since
        ) * self._throttle
        self.source.kernel.cpu.set_throttle(self.proc, 1.0)
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "mig.autoconverge.release",
                caused_by=self._causal_root,
                pid=self.proc.pid,
                session=self.session.label,
                throttled_seconds=report.throttled_seconds,
            )
        self._throttle = 0.0

    # -- post-copy tail --------------------------------------------------------
    def _postcopy_push(self, store: PostcopySource):
        """Background-push the residual set in extent batches, then
        confirm completion with the destination's pagefaultd."""
        costs = self.costs
        proc = self.proc
        report = self.report
        sid = self.session.label
        tr = self.env.tracer
        while not store.drained:
            if store.failed:
                raise RpcError(f"postcopy source failed (session {sid})")
            batch = store.take(costs.postcopy_push_pages)
            raw = len(batch) * PAGE_WIRE_BYTES
            yield self.env.timeout(costs.page_dump_cost * len(batch))
            wire, ccpu = self.channel.compress_pages(batch, raw)
            if ccpu:
                yield self.env.timeout(ccpu)
            push_body = {"op": "push", "pid": proc.pid, "pages": batch}
            if tr.enabled and self.session.causal_ref:
                push_body["cause"] = self.session.causal_ref
            yield self.channel.request(push_body, wire)
            report.bytes.postcopy_pages += wire
            report.compression_saved_bytes += raw - wire
            if tr.enabled:
                tr.event(
                    "mig.postcopy.push",
                    parent=self._causal_root,
                    caused_by=self.session.causal_ref,
                    pid=proc.pid,
                    session=sid,
                    pages=len(batch),
                    nbytes=wire,
                    remaining=store.remaining_pages,
                )
        if store.failed:
            raise RpcError(f"postcopy source failed (session {sid})")
        reply = yield self.channel.request(
            {"op": "postcopy_done", "pid": proc.pid}, 64
        )
        report.postcopy_faults = reply["faults"]
        report.postcopy_fetched_pages = reply["fetched_pages"]
        report.postcopy_fault_wait = reply["fault_wait"]
        report.postcopy_pushed_pages = store.pushed_pages
        # Demand-fetch traffic crossed the wire too: page-sized replies
        # plus the fetch requests themselves.
        report.bytes.postcopy_pages += (
            store.served_pages * PAGE_WIRE_BYTES
            + store.fetches * costs.postcopy_fetch_req_bytes
        )

    # -- peer-rule relocation (both-endpoints-migratable support) -------------
    def _local_conn_keys(self) -> list:
        """(remote ip, remote port, local port) of every in-cluster
        connection of the migrating process."""
        keys = []
        prefix = self.source.kernel.local_prefix
        for sock in self.proc.sockets():
            if sock.remote is not None and sock.remote.ip.value.startswith(prefix):
                keys.append((sock.remote.ip, sock.remote.port, sock.local.port))
        return keys

    def _relocate_peer_rules(self):
        from .translation import TRANSD_PORT, install_transd

        source_transd = install_transd(self.source)
        conn_keys = self._local_conn_keys()
        # Snapshot each peer's physical host *before* taking the rules:
        # the strategy's translation requests must still resolve them.
        for key in conn_keys:
            self.ctx.peer_physical[key] = source_transd.resolve_physical(*key)
        # Tombstones + rule removal happen atomically (same instant):
        # any install arriving later is forwarded to the destination,
        # which closes the race when both endpoints migrate at once.
        # The session keeps the bookkeeping for its rollback path.
        self.session.tombstone_keys = [
            (local_port, remote_ip, remote_port)
            for remote_ip, remote_port, local_port in conn_keys
        ]
        for tkey in self.session.tombstone_keys:
            source_transd.add_tombstone(tkey, self.dest.local_ip)
        self.session.relocated_rules = source_transd.take_rules_for(conn_keys)
        for rule in self.session.relocated_rules:
            yield self.source.control.rpc(
                self.dest.local_ip,
                TRANSD_PORT,
                {"op": "install", "rule": rule},
                size=96,
                timeout=self.config.rpc_timeout,
            )
        if self.session.tombstone_keys:
            # The process is (about to be) at the destination: clear any
            # stale departure records there so installs are not bounced
            # back on a return migration.
            yield self.source.control.rpc(
                self.dest.local_ip,
                TRANSD_PORT,
                {"op": "arrived", "keys": self.session.tombstone_keys},
                size=96,
                timeout=self.config.rpc_timeout,
            )

def migrate_process(
    source: Host,
    dest: Host,
    proc: SimProcess,
    config: Optional[LiveMigrationConfig] = None,
) -> Process:
    """Convenience: build an engine and start it; the returned DES
    process's value is the :class:`MigrationReport`."""
    return LiveMigrationEngine(source, dest, proc, config).start()
