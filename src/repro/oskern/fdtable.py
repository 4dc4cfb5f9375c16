"""File-descriptor tables and open-file objects.

The freeze phase iterates the FD table (Section III-C): regular files
are re-opened on the destination (contents are *not* transferred — files
are replicated or on a shared FS, Section II-A), and sockets take the
socket-migration path.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Iterator, Optional

__all__ = ["OpenFile", "RegularFile", "SocketFile", "FDTable"]


@dataclass
class OpenFile:
    """Base open-file entry."""

    description: str = ""


@dataclass
class RegularFile(OpenFile):
    """A regular file: path + cursor + flags.  Contents live on the
    shared/replicated filesystem, so only this metadata migrates."""

    path: str = ""
    offset: int = 0
    flags: str = "r"

    def checkpoint_record(self) -> dict[str, Any]:
        return {"kind": "file", "path": self.path, "offset": self.offset, "flags": self.flags}


@dataclass
class SocketFile(OpenFile):
    """An FD slot holding a socket object (TCP or UDP)."""

    socket: Any = None

    def checkpoint_record(self) -> dict[str, Any]:  # pragma: no cover - never used
        raise RuntimeError("sockets are checkpointed by the socket-migration path")


class FDTable:
    """fd -> OpenFile mapping with POSIX-style lowest-free allocation.

    Every fd at or above the high-water mark is free; the free fds below
    it wait in a min-heap, so an install costs O(log n) instead of a scan
    from fd 0.  An explicit install may leave its fd in the heap, and a
    pop skips such occupied fds.
    """

    def __init__(self) -> None:
        self._entries: dict[int, OpenFile] = {}
        self._free: list[int] = []
        self._next = 0

    def install(self, file: OpenFile, fd: Optional[int] = None) -> int:
        """Install ``file``; allocates the lowest free fd unless given."""
        entries = self._entries
        if fd is None:
            free = self._free
            while free:
                fd = heappop(free)
                if fd not in entries:
                    break
            else:
                fd = self._next
                self._next = fd + 1
        elif fd in entries:
            raise ValueError(f"fd {fd} already in use")
        elif fd < 0:
            raise ValueError("fd must be non-negative")
        elif fd >= self._next:
            for gap in range(self._next, fd):
                heappush(self._free, gap)
            self._next = fd + 1
        entries[fd] = file
        return fd

    def close(self, fd: int) -> OpenFile:
        try:
            file = self._entries.pop(fd)
        except KeyError:
            raise ValueError(f"bad file descriptor {fd}") from None
        heappush(self._free, fd)
        return file

    def clear(self) -> None:
        """Drop every open file (a socket file refers back to its process)."""
        self._entries.clear()
        self._free.clear()
        self._next = 0

    def get(self, fd: int) -> OpenFile:
        try:
            return self._entries[fd]
        except KeyError:
            raise ValueError(f"bad file descriptor {fd}") from None

    def fd_of(self, file: OpenFile) -> int:
        for fd, entry in self._entries.items():
            if entry is file:
                return fd
        raise ValueError("file not in table")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fd: int) -> bool:
        return fd in self._entries

    def items(self) -> Iterator[tuple[int, OpenFile]]:
        """Iterate (fd, file) in fd order — the freeze-phase table walk."""
        return iter(sorted(self._entries.items()))

    def sockets(self) -> list[tuple[int, SocketFile]]:
        return [(fd, f) for fd, f in self.items() if isinstance(f, SocketFile)]

    def regular_files(self) -> list[tuple[int, RegularFile]]:
        return [(fd, f) for fd, f in self.items() if isinstance(f, RegularFile)]
