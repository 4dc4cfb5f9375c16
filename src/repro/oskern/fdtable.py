"""File-descriptor tables and open-file objects.

The freeze phase iterates the FD table (Section III-C): regular files
are re-opened on the destination (contents are *not* transferred — files
are replicated or on a shared FS, Section II-A), and sockets take the
socket-migration path.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """fd -> OpenFile mapping with POSIX-style lowest-free allocation."""

    def __init__(self) -> None:
        self._entries: dict[int, OpenFile] = {}

    def install(self, file: OpenFile, fd: Optional[int] = None) -> int:
        """Install ``file``; allocates the lowest free fd unless given."""
        if fd is None:
            fd = 0
            while fd in self._entries:
                fd += 1
        elif fd in self._entries:
            raise ValueError(f"fd {fd} already in use")
        elif fd < 0:
            raise ValueError("fd must be non-negative")
        self._entries[fd] = file
        return fd

    def close(self, fd: int) -> OpenFile:
        try:
            return self._entries.pop(fd)
        except KeyError:
            raise ValueError(f"bad file descriptor {fd}") from None

    def clear(self) -> None:
        """Drop every open file (a socket file refers back to its process)."""
        self._entries.clear()

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
