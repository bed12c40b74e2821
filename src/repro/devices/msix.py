"""Interrupt-to-memory-write translation.

Paper, Section 4: "since future hardware should be compatible with
legacy devices, hardware must translate external interrupts to memory
writes (similar to PCIe MSI-x functionality)."

A :class:`MsixTranslator` owns a small table mapping interrupt vectors
to target memory words. A legacy device calls :meth:`raise_irq(vector)`;
the translator performs a memory write to the vector's target address
(waking any monitor there). Untranslated vectors can optionally fall
back to a legacy callback -- the baseline kernel's IDT dispatch -- so
the same device instance serves both worlds.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ConfigError
from repro.mem.memory import Memory


class MsixTranslator:
    """Routes device interrupt vectors to memory writes."""

    def __init__(self, memory: Memory, name: str = "msix",
                 legacy_fallback: Optional[Callable[[int], None]] = None):
        self.memory = memory
        self.name = name
        self.legacy_fallback = legacy_fallback
        self._table: Dict[int, int] = {}
        self.translated = 0
        self.fell_back = 0

    # ------------------------------------------------------------------
    def map_vector(self, vector: int, target_addr: int) -> None:
        """Program the translation table: vector -> memory word."""
        if vector < 0:
            raise ConfigError(f"vector must be non-negative, got {vector}")
        self._table[vector] = target_addr

    def unmap_vector(self, vector: int) -> None:
        self._table.pop(vector, None)

    # ------------------------------------------------------------------
    def raise_irq(self, vector: int) -> bool:
        """A device raised ``vector``. Returns True if translated.

        Translated vectors become a fetch-add on the target word (an
        event *count*, so coalesced interrupts are not lost); unmapped
        vectors go to the legacy fallback if one exists.
        """
        target = self._table.get(vector)
        if target is not None:
            self.translated += 1
            self.memory.fetch_add(target, 1, source=f"msix:{self.name}.v{vector}")
            return True
        if self.legacy_fallback is not None:
            self.fell_back += 1
            self.legacy_fallback(vector)
            return False
        raise ConfigError(
            f"vector {vector} unmapped and no legacy fallback configured")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<MsixTranslator {self.name} vectors={len(self._table)}"
                f" translated={self.translated}>")
