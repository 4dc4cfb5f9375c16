"""Tests for the BLCR-analog checkpoint/restart substrate."""

import pytest

from repro.blcr import (
    CheckpointImage,
    IMAGE_HEADER_BYTES,
    PAGE_RECORD_OVERHEAD,
    RestartError,
    VMA_RECORD_BYTES,
    checkpoint_process,
    restart_process,
)
from repro.cluster import build_cluster
from repro.oskern import PAGE_SIZE, RegularFile
from repro.oskern.memory import PageBatch


@pytest.fixture
def cluster():
    return build_cluster(n_nodes=2, with_db=False)


def make_process(kernel, npages=8, nfiles=2, nthreads=2):
    proc = kernel.spawn_process("zone_serv0", nthreads=nthreads)
    area = proc.address_space.mmap(npages, tag="heap")
    proc.address_space.write_range(area, count=3)
    for i in range(nfiles):
        proc.fdtable.install(RegularFile(path=f"/data/f{i}", offset=i * 10))
    proc.threads[0].signal_handlers[10] = "SIG_CKPT_handler"
    proc.threads[0].touch_registers()
    return proc


class TestImage:
    def test_sections_and_total_bytes(self):
        img = CheckpointImage(pid=1, name="p", source_node="n1", source_jiffies=0, nthreads=1)
        img.add_section("a", 100)
        img.add_section("b", 50)
        assert img.total_bytes == IMAGE_HEADER_BYTES + 150

    def test_duplicate_section_rejected(self):
        img = CheckpointImage(pid=1, name="p", source_node="n1", source_jiffies=0, nthreads=1)
        img.add_section("a", 1)
        with pytest.raises(ValueError):
            img.add_section("a", 1)

    def test_negative_size_rejected(self):
        img = CheckpointImage(pid=1, name="p", source_node="n1", source_jiffies=0, nthreads=1)
        with pytest.raises(ValueError):
            img.add_section("a", -1)

    def test_missing_section_keyerror(self):
        img = CheckpointImage(pid=1, name="p", source_node="n1", source_jiffies=0, nthreads=1)
        with pytest.raises(KeyError):
            img.section("nope")


class TestCheckpoint:
    def test_full_checkpoint_sections(self, cluster):
        proc = make_process(cluster.nodes[0].kernel)
        img = checkpoint_process(proc)
        assert img.pid == proc.pid
        assert img.source_node == "node1"
        assert set(img.sections) == {"memory_map", "pages", "files", "threads"}
        assert img.section("memory_map").nbytes == VMA_RECORD_BYTES * 1
        assert img.section("pages").nbytes == 8 * (PAGE_SIZE + PAGE_RECORD_OVERHEAD)

    def test_sockets_omitted_like_original_blcr(self, cluster):
        node = cluster.nodes[0]
        proc = make_process(node.kernel)
        node.stack.udp_socket(proc)  # installs a SocketFile fd
        img = checkpoint_process(proc)
        assert len(img.section("files").payload) == 2  # regular files only

    def test_dirty_only_checkpoint(self, cluster):
        proc = make_process(cluster.nodes[0].kernel, npages=8)
        checkpoint_process(proc)  # clears all dirty bits
        area = proc.address_space.vmas[0]
        proc.address_space.write_range(area, count=2, offset=4)
        img = checkpoint_process(proc, dirty_only=True)
        pages = img.section("pages").payload
        assert sorted(pages) == [area.start + 4, area.start + 5]

    def test_checkpoint_clears_dirty_bits(self, cluster):
        proc = make_process(cluster.nodes[0].kernel)
        checkpoint_process(proc)
        assert proc.address_space.dirty_count() == 0

    def test_source_jiffies_recorded(self, cluster):
        proc = make_process(cluster.nodes[0].kernel)
        img = checkpoint_process(proc)
        assert img.source_jiffies == cluster.nodes[0].kernel.jiffies.jiffies


class TestRestart:
    def test_restart_preserves_state(self, cluster):
        src, dst = cluster.nodes[0].kernel, cluster.nodes[1].kernel
        proc = make_process(src)
        area = proc.address_space.vmas[0]
        versions = proc.address_space.content_snapshot()
        img = checkpoint_process(proc)
        restored = restart_process(dst, img)

        assert restored.pid == proc.pid
        assert restored.name == proc.name
        assert restored.kernel is dst
        assert restored.address_space.content_snapshot() == versions
        assert len(restored.threads) == 2
        assert restored.threads[0].signal_handlers == {10: "SIG_CKPT_handler"}
        assert restored.threads[0].registers_version == proc.threads[0].registers_version
        files = restored.fdtable.regular_files()
        assert [(fd, f.path, f.offset) for fd, f in files] == [
            (0, "/data/f0", 0),
            (1, "/data/f1", 10),
        ]
        assert dst.process_by_pid(proc.pid) is restored

    def test_restart_duplicate_pid_rejected(self, cluster):
        src = cluster.nodes[0].kernel
        proc = make_process(src)
        img = checkpoint_process(proc)
        with pytest.raises(RestartError):
            restart_process(src, img)  # pid already present on source

    def test_restart_with_missing_pages_rejected(self, cluster):
        src, dst = cluster.nodes[0].kernel, cluster.nodes[1].kernel
        proc = make_process(src)
        full = checkpoint_process(proc)
        # The same image, but its page dump lacks the first page.
        img = CheckpointImage(
            pid=full.pid,
            name=full.name,
            source_node=full.source_node,
            source_jiffies=full.source_jiffies,
            nthreads=full.nthreads,
        )
        for section in full.sections.values():
            payload = section.payload
            if section.name == "pages":
                payload = PageBatch(payload.vpns[1:], payload.versions[1:])
            img.add_section(section.name, section.nbytes, payload)
        with pytest.raises(RestartError, match="^1 mapped pages never transferred$"):
            restart_process(dst, img)

    def test_restarted_process_is_functional(self, cluster):
        src, dst = cluster.nodes[0].kernel, cluster.nodes[1].kernel
        proc = make_process(src)
        img = checkpoint_process(proc)
        restored = restart_process(dst, img)
        # Can keep allocating and writing memory.
        fresh = restored.address_space.mmap(2)
        restored.address_space.write_page(fresh.start)
        assert restored.address_space.is_dirty(fresh.start)

    def test_incremental_images_compose(self, cluster):
        """Precopy-style: full image + dirty-only image = final state."""
        src, dst = cluster.nodes[0].kernel, cluster.nodes[1].kernel
        proc = make_process(src, npages=6)
        base = checkpoint_process(proc)
        area = proc.address_space.vmas[0]
        proc.address_space.write_range(area, count=2)  # mutate after base
        delta = checkpoint_process(proc, dirty_only=True)

        from repro.blcr import apply_image_state
        from repro.oskern import SimProcess
        from repro.oskern.task import ProcessState

        embryo = SimProcess.__new__(SimProcess)
        embryo.pid, embryo.name, embryo.kernel = proc.pid, proc.name, dst
        embryo.state = ProcessState.RUNNING
        embryo._thaw_event = None
        embryo.cpu_demand = 0.0
        apply_image_state(
            embryo,
            delta,
            staged_pages=base.section("pages").payload,
            staged_vmas=base.section("memory_map").payload,
        )
        assert (
            embryo.address_space.content_snapshot()
            == proc.address_space.content_snapshot()
        )

    @pytest.mark.parametrize(
        "drop, absent",
        [
            ([], None),
            ([0, 5, 20], None),
            ([3, 4, 20], [(2, 6)]),
            ([3, 4], [(2, 6), (28, 40)]),
        ],
        ids=["complete", "missing", "absent-and-missing", "absent-covers-missing"],
    )
    def test_completeness_check_matches_set_reference(self, cluster, drop, absent):
        """The range-walk completeness check counts exactly the mapped,
        non-absent pages that never arrived, ignores staged pages of
        unmapped areas, and restores absent pages as version 0 — the
        same as building the page sets would."""
        from repro.blcr import apply_image_state
        from repro.oskern import SimProcess
        from repro.oskern.task import ProcessState

        src, dst = cluster.nodes[0].kernel, cluster.nodes[1].kernel
        proc = make_process(src, npages=16)
        second = proc.address_space.mmap(16, tag="heap2")
        proc.address_space.write_range(second, count=5)
        base = checkpoint_process(proc)
        proc.address_space.write_range(proc.address_space.vmas[0], count=2, offset=10)
        delta = checkpoint_process(proc, dirty_only=True)

        vmas = base.section("memory_map").payload
        mapped = [vpn for start, end, _p, _t in vmas for vpn in range(start, end)]
        staged = dict(base.section("pages").payload)
        for i in drop:
            staged.pop(mapped[i], None)
        staged[mapped[-1] + 100] = 7  # a page of a since-unmapped area
        extents = None
        if absent is not None:
            extents = [(mapped[0] + lo, mapped[0] + hi) for lo, hi in absent]

        # Reference: the set arithmetic the check replaced.
        pages = {**staged, **delta.section("pages").payload}
        absent_set = {v for lo, hi in extents or () for v in range(lo, hi)}
        missing = set(mapped) - set(pages) - absent_set

        embryo = SimProcess.__new__(SimProcess)
        embryo.pid, embryo.name, embryo.kernel = proc.pid, proc.name, dst
        embryo.state = ProcessState.RUNNING
        embryo._thaw_event = None
        embryo.cpu_demand = 0.0

        def restore():
            apply_image_state(
                embryo, delta, staged_pages=staged, staged_vmas=vmas,
                absent_extents=extents,
            )

        if missing:
            with pytest.raises(RestartError, match=f"^{len(missing)} mapped pages never"):
                restore()
            return
        restore()
        assert embryo.address_space.content_snapshot() == {
            vpn: pages.get(vpn, 0) for vpn in mapped
        }
