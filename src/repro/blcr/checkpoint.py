"""Full-stop process checkpointing (the BLCR baseline).

Dumps the address space, the FD table's *regular files* (file contents
stay on the shared filesystem; sockets are omitted, as in unmodified
BLCR — the paper's extension handles them separately), and per-thread
execution context.  The live-migration engine reuses the pieces: the
page dump supports a ``dirty_only`` incremental mode, and the context
dump is exactly what the freeze-phase leader transfers.
"""

from __future__ import annotations

from ..oskern import PAGE_SIZE, SimProcess
from ..oskern.memory import PageBatch
from .image import CheckpointImage

__all__ = [
    "checkpoint_process",
    "dump_memory_map",
    "dump_pages",
    "dump_file_table",
    "dump_thread_context",
    "VMA_RECORD_BYTES",
    "PAGE_RECORD_OVERHEAD",
]

#: Serialized size of one VMA record (start/end/perms/flags).
VMA_RECORD_BYTES = 32
#: Per-page framing (page number + length) around the 4 KiB of data.
PAGE_RECORD_OVERHEAD = 8


def dump_memory_map(proc: SimProcess) -> tuple[list, int]:
    """VMA list snapshot + its serialized size."""
    records = [(v.start, v.end, v.perms, v.tag) for v in proc.address_space.vmas]
    return records, VMA_RECORD_BYTES * len(records)


def dump_pages(proc: SimProcess, dirty_only: bool = False) -> tuple[PageBatch, int]:
    """Page dump: a :class:`~repro.oskern.memory.PageBatch` of every
    dumped page with its version, ascending, + serialized size; clears
    dirty bits for the dumped set (this is the incremental-checkpoint
    primitive).

    The batch is copied out of the address space's page stores one run
    at a time (dirty extents, or whole VMAs for a full dump), and the
    dirty bits are cleared wholesale — dirty pages are always a subset
    of mapped pages, so both modes dump every dirty page.
    """
    space = proc.address_space
    if dirty_only:
        pages = space.dirty_version_map()
    else:
        pages = space.content_snapshot()
    space.clear_dirty()
    return pages, len(pages) * (PAGE_SIZE + PAGE_RECORD_OVERHEAD)


def dump_file_table(proc: SimProcess) -> tuple[list, int]:
    """Regular-file records (contents not transferred) + size.

    Sockets are *skipped* here: unmodified BLCR simply omits them
    (Section III-C); the socket-migration strategies own that state.
    """
    records = []
    for fd, f in proc.fdtable.regular_files():
        rec = f.checkpoint_record()
        rec["fd"] = fd
        records.append(rec)
    per_entry = proc.kernel.costs.file_entry_bytes
    return records, per_entry * len(records)


def dump_thread_context(proc: SimProcess) -> tuple[list, int]:
    """Registers/signal handlers/IDs for every thread + size."""
    records = [t.checkpoint_record() for t in proc.threads]
    return records, proc.kernel.costs.thread_ctx_bytes * len(records)


def checkpoint_process(proc: SimProcess, dirty_only: bool = False) -> CheckpointImage:
    """Produce a full (or dirty-page-incremental) checkpoint image."""
    image = CheckpointImage(
        pid=proc.pid,
        name=proc.name,
        source_node=proc.node_name,
        source_jiffies=proc.kernel.jiffies.jiffies,
        nthreads=len(proc.threads),
    )
    vmas, vma_bytes = dump_memory_map(proc)
    image.add_section("memory_map", vma_bytes, vmas)
    pages, page_bytes = dump_pages(proc, dirty_only=dirty_only)
    image.add_section("pages", page_bytes, pages)
    files, file_bytes = dump_file_table(proc)
    image.add_section("files", file_bytes, files)
    threads, thread_bytes = dump_thread_context(proc)
    image.add_section("threads", thread_bytes, threads)
    return image
