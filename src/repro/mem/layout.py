"""Virtual/physical address layout helpers.

TenAnalyzer operates on *virtual* addresses precisely because physical pages
are discontiguous (Fig. 9 of the paper): a tensor that is one contiguous VA
range maps to shuffled physical pages. :class:`PageTable` reproduces that
shuffling so the MEE (which works on PAs) and TenAnalyzer (VAs) disagree the
same way real hardware does.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.units import CACHELINE_BYTES, PAGE_BYTES


def line_of(addr: int, line_bytes: int = CACHELINE_BYTES) -> int:
    """Line-align an address."""
    return addr - (addr % line_bytes)


def line_index(addr: int, line_bytes: int = CACHELINE_BYTES) -> int:
    """Index of the cacheline containing ``addr``."""
    return addr // line_bytes


def page_of(addr: int, page_bytes: int = PAGE_BYTES) -> int:
    """Page-align an address."""
    return addr - (addr % page_bytes)


class PageTable:
    """Deterministic VA→PA mapping with shuffled physical pages.

    Pages are assigned physical frames in a pseudo-random order seeded at
    construction, so contiguous virtual ranges become discontiguous physical
    ranges (Fig. 9a/b). The mapping is built lazily on first touch.
    """

    def __init__(self, phys_base: int = 0x10_0000_0000, seed: int = 0x5EED) -> None:
        self.phys_base = phys_base
        self._rng = random.Random(seed)
        self._va_to_frame: Dict[int, int] = {}
        self._next_frame = 0
        self._free_frames: list[int] = []

    def translate(self, vaddr: int) -> int:
        """Translate a virtual address to its physical address."""
        if vaddr < 0:
            raise ConfigError(f"negative virtual address {vaddr:#x}")
        vpage = page_of(vaddr)
        frame = self._va_to_frame.get(vpage)
        if frame is None:
            frame = self._allocate_frame()
            self._va_to_frame[vpage] = frame
        return self.phys_base + frame * PAGE_BYTES + (vaddr - vpage)

    def _allocate_frame(self) -> int:
        # Keep a small pool so allocation order is shuffled, modelling an OS
        # free list rather than a bump allocator.
        while len(self._free_frames) < 8:
            self._free_frames.append(self._next_frame)
            self._next_frame += 1
        pick = self._rng.randrange(len(self._free_frames))
        return self._free_frames.pop(pick)

    def frames_of(self, base_va: int, n_lines: int) -> Tuple[int, ...]:
        """Physical frame base of every virtual page a line range spans.

        Together with the translated ``base_va`` this is a range's complete
        source-coordinate record: :func:`source_line_pas` rebuilds each
        line's PA from it on the far side of a transfer.
        """
        if n_lines <= 0:
            raise ConfigError("a line range covers at least one line")
        first = page_of(base_va)
        last = page_of(base_va + (n_lines - 1) * CACHELINE_BYTES)
        return tuple(
            self.translate(vpage) for vpage in range(first, last + PAGE_BYTES, PAGE_BYTES)
        )

    @property
    def mapped_pages(self) -> int:
        """Number of virtual pages touched so far."""
        return len(self._va_to_frame)


def source_line_pas(base_pa: int, frame_pas: Sequence[int], n_lines: int) -> List[int]:
    """Physical address of each line of a virtually contiguous range.

    ``base_pa`` is the PA of the first line and ``frame_pas`` the frame base
    of every page the range spans, in virtual order (:meth:`PageTable.frames_of`).
    """
    offset = base_pa % PAGE_BYTES
    n_pages = (offset + n_lines * CACHELINE_BYTES + PAGE_BYTES - 1) // PAGE_BYTES
    if len(frame_pas) != n_pages or frame_pas[0] != base_pa - offset:
        raise ConfigError(
            f"{len(frame_pas)} frames do not describe {n_lines} lines from {base_pa:#x}"
        )
    return [
        frame_pas[byte // PAGE_BYTES] + byte % PAGE_BYTES
        for byte in range(offset, offset + n_lines * CACHELINE_BYTES, CACHELINE_BYTES)
    ]
