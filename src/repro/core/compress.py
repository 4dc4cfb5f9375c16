"""Delta compression for the migration channel's page stream.

QEMU ships two cheap page encodings that this module models:

* **zero-page detection** — a page the guest never wrote compresses to a
  one-byte marker; the receiver materializes it locally;
* **XBZRLE** — the sender keeps a cache of the last version of each page
  it transferred and sends a run-length-encoded word diff against it,
  falling back to the full page when the delta would not pay off.

Pages in this simulation carry *versions*, not contents, so both
encodings are modelled on versions: version 0 is a never-written (zero)
page, and the XBZRLE delta size grows with the number of writes since
the cached copy (``xbzrle_delta_bytes`` per version step, capped at the
full page).  The wire still carries the exact ``{vpn: version}`` dict —
compression only changes the *accounted* bytes and CPU, which is all the
simulation observes.

The compressor is attached to a :class:`~repro.core.migd.MigrationChannel`
when the session's config asks for it; ``compression="none"`` attaches
nothing at all, keeping the default path byte-identical to the
pre-compression engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..blcr.checkpoint import PAGE_RECORD_OVERHEAD
from ..oskern import PAGE_SIZE
from ..oskern.costs import CostModel

__all__ = ["COMPRESSION_MODES", "CompressStats", "PageCompressor", "make_compressor"]

#: Accepted values for ``LiveMigrationConfig.compression``.
COMPRESSION_MODES = ("none", "zero-page", "xbzrle")

#: Serialized size of one uncompressed page record.
_FULL_PAGE = PAGE_SIZE + PAGE_RECORD_OVERHEAD


@dataclass
class CompressStats:
    """Cumulative compression accounting across a session's rounds."""

    pages: int = 0
    raw_bytes: int = 0
    wire_bytes: int = 0
    zero_pages: int = 0
    delta_pages: int = 0
    full_pages: int = 0
    cpu_seconds: float = 0.0

    @property
    def saved_bytes(self) -> int:
        return self.raw_bytes - self.wire_bytes


class PageCompressor:
    """Zero-page (and optionally XBZRLE) page-stream compressor.

    One instance lives per migration session, because the XBZRLE cache
    is exactly "the last version of each page this *session* sent".
    """

    def __init__(self, mode: str, costs: CostModel) -> None:
        if mode not in ("zero-page", "xbzrle"):
            raise ValueError(f"unknown compression mode {mode!r}")
        self.mode = mode
        self.costs = costs
        self.stats = CompressStats()
        #: vpn -> version of the copy the destination already holds.
        self._cache: dict[int, int] = {}

    def compress(self, pages: dict[int, int]) -> tuple[int, float]:
        """Account one page batch; returns ``(wire_bytes, cpu_cost)``.

        The batch itself still travels as-is (versions are the contents
        here); only the byte/CPU accounting shrinks.
        """
        costs = self.costs
        wire = 0
        cpu = 0.0
        zero = delta = full = 0
        xbzrle = self.mode == "xbzrle"
        cache_get = self._cache.get
        # Hoisted per-page constants: the accumulation order is unchanged
        # (same float sums), only the attribute lookups leave the loop.
        zero_scan = costs.zero_scan_cost
        zero_bytes = costs.zero_page_bytes
        encode_cost = costs.xbzrle_encode_cost
        delta_bytes = costs.xbzrle_delta_bytes
        for vpn, version in pages.items():
            cpu += zero_scan
            if version == 0:
                wire += zero_bytes
                zero += 1
                continue
            if xbzrle:
                cached = cache_get(vpn)
                if cached is not None and 0 < cached < version:
                    cpu += encode_cost
                    enc = PAGE_RECORD_OVERHEAD + min(
                        PAGE_SIZE, delta_bytes * (version - cached)
                    )
                    if enc < _FULL_PAGE:
                        wire += enc
                        delta += 1
                        continue
            wire += _FULL_PAGE
            full += 1
        if xbzrle:
            self._cache.update(pages)
        st = self.stats
        st.pages += len(pages)
        st.raw_bytes += len(pages) * _FULL_PAGE
        st.wire_bytes += wire
        st.zero_pages += zero
        st.delta_pages += delta
        st.full_pages += full
        st.cpu_seconds += cpu
        return wire, cpu


def make_compressor(mode: str, costs: CostModel) -> PageCompressor | None:
    """Compressor for a config value; ``None`` disables the stage
    entirely (not even accounting runs, so default traces are untouched).
    """
    if mode == "none":
        return None
    return PageCompressor(mode, costs)
