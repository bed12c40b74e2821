"""Memory-mapped I/O windows.

Devices expose doorbell/status registers as an address window inside the
shared :class:`~repro.mem.memory.Memory`. Loads and stores inside the
window are redirected to device callbacks, but stores *still* notify the
watch bus -- per the paper, "one can monitor uncachable addresses such as
device memory or memory-mapped I/O registers".
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import MemoryError_
from repro.mem.memory import WORD_BYTES, Region


class MmioRegion:
    """A device register window.

    ``on_store(offset_words, value, source)`` is invoked for writes
    (doorbells); per-offset load values are backed by a small register
    dict the device updates via :meth:`set_reg`.
    """

    def __init__(self, region: Region,
                 on_store: Optional[Callable[[int, int, str], None]] = None,
                 name: str = ""):
        self.region = region
        self.name = name or region.name
        self.on_store = on_store
        self._regs: Dict[int, int] = {}
        self.store_count = 0
        self.load_count = 0

    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        return self.region.contains(addr)

    def handle_load(self, addr: int) -> int:
        self.load_count += 1
        return self._regs.get(self._offset(addr), 0)

    def handle_store(self, addr: int, value: int, source: str) -> None:
        self.store_count += 1
        offset = self._offset(addr)
        self._regs[offset] = value
        if self.on_store is not None:
            self.on_store(offset, value, source)

    def set_reg(self, offset_words: int, value: int) -> None:
        """Device-side update of a readable register (no doorbell)."""
        self._regs[offset_words] = value

    def reg_addr(self, offset_words: int) -> int:
        """Byte address of a register, for guests to load/store."""
        return self.region.word(offset_words)

    # ------------------------------------------------------------------
    def _offset(self, addr: int) -> int:
        if not self.contains(addr):
            raise MemoryError_(f"addr {addr:#x} outside MMIO {self.name!r}")
        return (addr - self.region.base) // WORD_BYTES
