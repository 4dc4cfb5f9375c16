"""Unit tests for processes, threads and FD tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.oskern import (
    FDTable,
    Host,
    ProcessState,
    RegularFile,
    SocketFile,
)
from repro.net import IPAddr


@pytest.fixture
def kernel():
    env = Environment()
    host = Host(env, "n1", local_ip=IPAddr("192.168.0.1"))
    return host.kernel


class TestFDTable:
    def test_lowest_free_allocation(self):
        t = FDTable()
        assert t.install(RegularFile(path="/a")) == 0
        assert t.install(RegularFile(path="/b")) == 1
        t.close(0)
        assert t.install(RegularFile(path="/c")) == 0

    def test_explicit_fd(self):
        t = FDTable()
        assert t.install(RegularFile(path="/a"), fd=7) == 7
        with pytest.raises(ValueError):
            t.install(RegularFile(path="/b"), fd=7)
        with pytest.raises(ValueError):
            t.install(RegularFile(path="/b"), fd=-1)

    def test_explicit_fds_leave_lower_gaps_allocatable(self):
        t = FDTable()
        assert t.install(RegularFile(path="/a"), fd=3) == 3
        assert [t.install(RegularFile()) for _ in range(4)] == [0, 1, 2, 4]
        t.close(1)
        assert t.install(RegularFile(path="/b"), fd=1) == 1
        assert t.install(RegularFile()) == 5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("iec"), st.integers(0, 12)), max_size=60))
    def test_allocation_matches_a_scan_from_zero(self, ops):
        """Installs, explicit installs and closes hand out the fds a
        lowest-free scan from fd 0 would."""
        t, taken = FDTable(), set()
        for op, fd in ops:
            if op == "i":
                want = min(set(range(len(taken) + 1)) - taken)
                assert t.install(RegularFile()) == want
                taken.add(want)
            elif op == "e" and fd not in taken:
                assert t.install(RegularFile(), fd=fd) == fd
                taken.add(fd)
            elif op == "c" and fd in taken:
                t.close(fd)
                taken.discard(fd)
        assert sorted(fd for fd, _ in t.items()) == sorted(taken)

    def test_close_and_get(self):
        t = FDTable()
        fd = t.install(RegularFile(path="/a"))
        assert t.get(fd).path == "/a"
        t.close(fd)
        with pytest.raises(ValueError):
            t.get(fd)
        with pytest.raises(ValueError):
            t.close(fd)

    def test_items_in_fd_order(self):
        t = FDTable()
        t.install(RegularFile(path="/a"), fd=5)
        t.install(RegularFile(path="/b"), fd=1)
        assert [fd for fd, _ in t.items()] == [1, 5]

    def test_sockets_vs_regular_files(self):
        t = FDTable()
        t.install(RegularFile(path="/a"))
        t.install(SocketFile(socket="fake"))
        assert len(t.sockets()) == 1
        assert len(t.regular_files()) == 1

    def test_fd_of(self):
        t = FDTable()
        f = RegularFile(path="/a")
        fd = t.install(f)
        assert t.fd_of(f) == fd
        with pytest.raises(ValueError):
            t.fd_of(RegularFile(path="/b"))

    def test_checkpoint_record(self):
        f = RegularFile(path="/var/game.cfg", offset=42, flags="rw")
        rec = f.checkpoint_record()
        assert rec == {"kind": "file", "path": "/var/game.cfg", "offset": 42, "flags": "rw"}


class TestSimProcess:
    def test_spawn_registers_in_kernel(self, kernel):
        proc = kernel.spawn_process("zone_serv0")
        assert kernel.process_by_pid(proc.pid) is proc
        assert proc.state == ProcessState.RUNNING

    def test_unique_pids(self, kernel):
        a = kernel.spawn_process("a")
        b = kernel.spawn_process("b")
        assert a.pid != b.pid

    def test_each_world_numbers_its_own_processes(self):
        firsts = []
        for _ in range(2):
            host = Host(Environment(), "n1", local_ip=IPAddr("192.168.0.1"))
            proc = host.kernel.spawn_process("p", nthreads=2)
            firsts.append((proc.pid, [t.tid for t in proc.threads], proc.clone_thread().tid))
        assert firsts == [(1000, [100, 101], 102)] * 2

    def test_threads(self, kernel):
        proc = kernel.spawn_process("p", nthreads=3)
        assert len(proc.threads) == 3
        helper = proc.clone_thread()
        assert len(proc.threads) == 4
        proc.reap_thread(helper)
        assert len(proc.threads) == 3
        with pytest.raises(ValueError):
            proc.reap_thread(proc.main_thread)

    def test_zero_threads_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.spawn_process("p", nthreads=0)

    def test_freeze_thaw_cycle(self, kernel):
        proc = kernel.spawn_process("p")
        proc.freeze()
        assert proc.is_frozen
        with pytest.raises(RuntimeError):
            proc.freeze()
        proc.thaw()
        assert not proc.is_frozen
        with pytest.raises(RuntimeError):
            proc.thaw()

    def test_check_frozen_blocks_app(self, kernel):
        env = kernel.env
        proc = kernel.spawn_process("p")
        log = []

        def app():
            while len(log) < 3:
                yield from proc.check_frozen()
                log.append(env.now)
                yield env.timeout(1)

        def freezer():
            yield env.timeout(1.5)
            proc.freeze()
            yield env.timeout(10)
            proc.thaw()

        env.process(app())
        env.process(freezer())
        env.run()
        assert log == [0, 1, 11.5]

    def test_checkpoint_signal_aborts_syscalls(self, kernel):
        proc = kernel.spawn_process("p", nthreads=2)
        aborted = []
        proc.threads[0].in_syscall = True
        proc.threads[0].syscall_abort = lambda: aborted.append(0)
        assert proc.deliver_checkpoint_signal() == 1
        assert aborted == [0]
        assert not proc.threads[0].in_syscall
        # Second delivery: nothing left in a syscall.
        assert proc.deliver_checkpoint_signal() == 0

    def test_exit_removes_from_kernel(self, kernel):
        proc = kernel.spawn_process("p")
        proc.exit()
        with pytest.raises(ValueError):
            kernel.process_by_pid(proc.pid)

    def test_register_touch(self, kernel):
        proc = kernel.spawn_process("p")
        v = proc.main_thread.registers_version
        proc.main_thread.touch_registers()
        assert proc.main_thread.registers_version == v + 1
