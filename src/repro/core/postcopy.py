"""Post-copy migration: demand paging and background push.

In post-copy (and the post-copy tail of hybrid) migration the execution
context moves *first*: the destination resumes the process while most of
its memory is still on the source.  Two flows then race to make every
page resident:

* **demand fetch** — a workload write that hits a non-resident page
  traps into ``pagefaultd`` (:class:`PostcopyFetcher`, installed as the
  process's :attr:`~repro.oskern.task.SimProcess.page_fault_handler`),
  which fetches the faulting extent from the source's
  :class:`PostcopySource` store over the migd control port and blocks
  the writer until the pages arrive;
* **background push** — the source engine streams the residual set to
  the destination in extent batches, *prioritized by fault order*: a
  demand fetch moves the run following the faulting extent to the front
  of the push queue, so pushes chase the workload's locality.

The source keeps the authoritative page store (the content snapshot
taken at freeze); both flows remove what they transfer from the shared
residual queue, so no page travels twice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..blcr.checkpoint import PAGE_RECORD_OVERHEAD
from ..des import Event
from ..oskern import PAGE_SIZE, RpcError, SimProcess
from ..oskern.memory import PageBatch

if TYPE_CHECKING:  # pragma: no cover
    from ..net import IPAddr
    from ..oskern.node import Host

__all__ = ["PostcopySource", "PostcopyFetcher", "PAGE_WIRE_BYTES"]

#: Serialized size of one page on the wire (uncompressed).
PAGE_WIRE_BYTES = PAGE_SIZE + PAGE_RECORD_OVERHEAD


class PostcopySource:
    """Source-side page store for one post-copy session.

    Holds the freeze-time contents of every not-yet-transferred page and
    a priority-ordered queue of residual extents.  The engine's push
    loop drains the queue front; demand fetches are served immediately
    and re-prioritize the queue toward the fault's locality.
    """

    def __init__(self, session: str, pages: PageBatch, extents: list[tuple[int, int]]) -> None:
        self.session = session
        #: Freeze-time contents of every residual page, ascending
        #: (authoritative contents).
        self.pages = pages
        #: Residual runs in push-priority order (initially address order).
        self._queue: list[list[int]] = [[s, e] for s, e in extents]
        #: Set by fault injection (or a dead engine): fetches and pushes
        #: must stop succeeding.
        self.failed = False
        self.served_pages = 0
        self.pushed_pages = 0
        self.fetches = 0

    @property
    def remaining_pages(self) -> int:
        return sum(e - s for s, e in self._queue)

    @property
    def drained(self) -> bool:
        return not self._queue

    def take(self, max_pages: int) -> PageBatch:
        """Pop up to ``max_pages`` from the queue front (push batch), in
        queue order — not ascending once a fetch re-prioritized it."""
        runs = []
        budget = max_pages
        while budget > 0 and self._queue:
            run = self._queue[0]
            start, end = run
            chunk = min(budget, end - start)
            runs.append((start, start + chunk))
            budget -= chunk
            if start + chunk == end:
                self._queue.pop(0)
            else:
                run[0] = start + chunk
        out = self.pages.select(runs)
        self.pushed_pages += len(out)
        return out

    def serve(self, start: int, end: int) -> PageBatch:
        """Serve a demand fetch for ``[start, end)``: return the stored
        pages in that range, drop them from the queue, and move the run
        that now follows the fetched range to the queue front."""
        self.fetches += 1
        # Serve from the store regardless of queue membership: a fetch
        # racing an in-flight push batch (pages popped but not yet
        # installed at the destination) must still deliver content — a
        # duplicate install is harmless, an empty reply would leave the
        # writer faulting forever.
        out = self.pages.select([(start, end)])
        self._remove(start, end)
        self._prioritize(end)
        self.served_pages += len(out)
        return out

    def _remove(self, start: int, end: int) -> None:
        new_queue: list[list[int]] = []
        for run in self._queue:
            s, e = run
            if e <= start or s >= end:
                new_queue.append(run)
                continue
            if s < start:
                new_queue.append([s, start])
            if e > end:
                new_queue.append([end, e])
        self._queue = new_queue

    def _prioritize(self, vpn: int) -> None:
        """Move the run containing/starting at ``vpn`` to the front."""
        for i, run in enumerate(self._queue):
            if run[1] > vpn:
                if i:
                    self._queue.insert(0, self._queue.pop(i))
                return


class PostcopyFetcher:
    """Destination-side ``pagefaultd`` for one post-copy session.

    Installed as the restored process's page-fault handler before the
    thaw; workload writes that hit non-resident pages call :meth:`fault`
    (via :meth:`~repro.oskern.task.SimProcess.touch_range`) and block
    until the extent is fetched from the source.
    """

    def __init__(
        self,
        host: "Host",
        source_ip: "IPAddr",
        session: Optional[str],
        pid: int,
        proc: SimProcess,
        rpc_timeout: Optional[float],
    ) -> None:
        self.host = host
        self.env = host.env
        self.source_ip = source_ip
        self.session = session
        self.pid = pid
        self.proc = proc
        self.rpc_timeout = rpc_timeout
        self.failed = False
        self.faults = 0
        self.fetched_pages = 0
        self.pushed_pages = 0
        #: Total simulated time workload writes stalled on fetches.
        self.fault_wait = 0.0
        #: (start, end) -> completion event, so concurrent writers to
        #: the same extent issue one fetch.
        self._inflight: dict[tuple[int, int], Event] = {}
        #: Fires once every mapped page is resident.
        self.all_resident = Event(self.env)
        proc.page_fault_handler = self.fault

    def fault(self, start: int, end: int):
        """Demand-fetch ``[start, end)`` from the source (generator)."""
        if self.failed:
            raise RpcError(f"postcopy session {self.session}: fetch path failed")
        t0 = self.env.now
        self.faults += 1
        tr = self.env.tracer
        fault_ref = 0
        if tr.enabled:
            fault_ref = tr.event(
                "pagefaultd.fault",
                ref=True,
                pid=self.pid,
                session=self.session,
                start=start,
                npages=end - start,
            )
        pending = self._inflight.get((start, end))
        if pending is not None:
            yield pending
            self.fault_wait += self.env.now - t0
            if self.failed:
                raise RpcError(f"postcopy session {self.session}: fetch path failed")
            return
        from .migd import MIGD_PORT  # local: migd imports this module

        done = Event(self.env)
        self._inflight[(start, end)] = done
        costs = self.host.kernel.costs
        fetch_body = {
            "op": "fetch",
            "pid": self.pid,
            "session": self.session,
            "start": start,
            "end": end,
        }
        if tr.enabled:
            # Cross-node causal edge: the source's migd.postcopy.serve
            # record links back to the fault that demanded it.
            fetch_body["cause"] = fault_ref
        try:
            reply = yield self.host.control.rpc(
                self.source_ip,
                MIGD_PORT,
                fetch_body,
                size=costs.postcopy_fetch_req_bytes,
                timeout=self.rpc_timeout,
            )
        except RpcError:
            self.failed = True
            self._inflight.pop((start, end), None)
            if not done.triggered:  # fail() may have beaten us to it
                done.succeed()  # waiters re-check ``failed`` and raise
            raise
        pages = reply["pages"]
        self.install(pages, fetched=True)
        self._inflight.pop((start, end), None)
        if not done.triggered:  # fail() may have raced the reply
            done.succeed()
        self.fault_wait += self.env.now - t0

    def install(self, pages: PageBatch, fetched: bool) -> None:
        """Install arrived pages (demand fetch or background push)."""
        space = self.proc.address_space
        space.install_pages(pages)
        if fetched:
            self.fetched_pages += len(pages)
        else:
            self.pushed_pages += len(pages)
        if not space.has_absent and not self.all_resident.triggered:
            self.all_resident.succeed()

    def fail(self) -> None:
        """Abort delivery: subsequent (and blocked) faults raise."""
        self.failed = True
        self.proc.page_fault_handler = None
        for done in list(self._inflight.values()):
            if not done.triggered:
                done.succeed()  # waiters observe ``failed`` and raise
        self._inflight.clear()
        tr = self.env.tracer
        if tr.enabled:
            tr.event("pagefaultd.fail", pid=self.pid, session=self.session)
