"""Process restart from a checkpoint image.

Two modes:

- *fresh restart* (classic BLCR): build a brand-new :class:`SimProcess`
  on the target kernel from the image;
- *in-place restore* (live migration): the destination has accumulated
  incremental page updates for an "embryo" process; the final freeze
  image rebuilds the kernel-visible state of the migrating process
  object and the destination kernel adopts it.  Every piece of restored
  state comes from the image (and staged updates), never from the
  still-referenced source-side object.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional

import numpy as np

from ..oskern import AddressSpace, FDTable, RegularFile, SimProcess, Thread
from ..oskern.memory import ExtentSet, PageBatch
from ..oskern.task import ProcessState
from .image import CheckpointImage

__all__ = ["restart_process", "apply_image_state", "RestartError"]


class RestartError(RuntimeError):
    """The image cannot be restored on this kernel."""


def _rebuild_fdtable(file_records: list) -> FDTable:
    table = FDTable()
    for rec in file_records:
        if rec.get("kind") != "file":
            raise RestartError(f"unknown FD record kind: {rec!r}")
        table.install(
            RegularFile(path=rec["path"], offset=rec["offset"], flags=rec["flags"]),
            fd=rec["fd"],
        )
    return table


def _rebuild_threads(thread_records: list) -> list[Thread]:
    threads = []
    for rec in thread_records:
        t = Thread(
            tid=rec["tid"],
            registers_version=rec["registers_version"],
            signal_handlers=dict(rec["signal_handlers"]),
        )
        threads.append(t)
    return threads


def apply_image_state(
    proc: SimProcess,
    image: CheckpointImage,
    staged_pages: Optional[Mapping] = None,
    staged_vmas: Optional[list] = None,
    absent_extents: Optional[list] = None,
) -> None:
    """Replace ``proc``'s kernel-visible state with the image contents.

    ``staged_pages``/``staged_vmas`` carry the incremental updates the
    destination accumulated during precopy; the image's own sections are
    the final freeze-phase deltas layered on top.  Page payloads are
    :class:`~repro.oskern.memory.PageBatch` objects (any
    ``{vpn: version}`` mapping is converted).

    ``absent_extents`` (post-copy) lists page runs whose contents stay
    on the source: they are exempt from the completeness check, built as
    version-0 placeholders, and marked non-resident so the first write
    faults into the demand-fetch path.
    """
    vmas = image.section("memory_map").payload if image.has_section("memory_map") else staged_vmas
    if vmas is None:
        raise RestartError("no memory map available")
    # The final deltas win over the staged updates.
    pages = PageBatch.of(staged_pages or {}).ascending()
    if image.has_section("pages"):
        pages = pages.overlay(PageBatch.of(image.section("pages").payload))
    # Every mapped page outside the absent extents must have arrived:
    # per required run, its length minus the arrived pages inside it.
    # Pages of since-unmapped areas (free() during precopy) are simply
    # not read back, and absent pages start as version 0.
    required = ExtentSet()
    for start, end, _perms, _tag in vmas:
        required.add(start, end)
    for start, end in absent_extents or ():
        required.remove(start, end)
    runs = np.array(required.extents(), np.int64).reshape(-1, 2)
    arrived = np.searchsorted(pages.vpns, runs[:, 1]) - np.searchsorted(pages.vpns, runs[:, 0])
    missing = len(required) - int(arrived.sum())
    if missing:
        raise RestartError(f"{missing} mapped pages never transferred")

    proc.address_space = AddressSpace()
    proc.address_space.load_snapshot(list(vmas), pages)
    if absent_extents:
        proc.address_space.mark_absent(absent_extents)
    proc.fdtable = _rebuild_fdtable(image.section("files").payload)
    proc.threads = _rebuild_threads(image.section("threads").payload)
    if len(proc.threads) != image.nthreads:
        raise RestartError(
            f"thread count mismatch: {len(proc.threads)} != {image.nthreads}"
        )


def restart_process(kernel, image: CheckpointImage) -> SimProcess:
    """Classic BLCR restart: a fresh process on ``kernel`` from a full
    image.  The caller re-drives application behaviour."""
    proc = SimProcess.__new__(SimProcess)
    proc.pid = image.pid
    proc.name = image.name
    proc.kernel = kernel
    proc.state = ProcessState.RUNNING
    proc._thaw_event = None
    proc.cpu_demand = 0.0
    proc.cpu_throttle = 1.0
    proc.page_fault_handler = None
    proc.threads = []
    apply_image_state(proc, image)
    if image.pid in kernel.processes:
        raise RestartError(f"pid {image.pid} already exists on {kernel.node_name}")
    kernel.processes[proc.pid] = proc
    kernel.cpu.adopt(proc)
    return proc
