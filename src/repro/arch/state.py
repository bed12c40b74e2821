"""Per-hardware-thread architectural state.

An :class:`ArchState` is the register context stored in the thread-state
storage hierarchy and manipulated remotely by ``rpull``/``rpush``. It is
deliberately a plain mutable object: the *hardware* semantics (who may
read/write which register, and when) are enforced by :mod:`repro.hw`,
not here.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.arch.registers import (
    GPR_COUNT,
    RegisterClass,
    RegisterSpec,
    register_specs,
    state_bytes,
)
from repro.errors import IsaError


class ControlRegister(str, enum.Enum):
    """Symbolic names for non-GPR registers addressable by rpull/rpush."""

    PC = "pc"
    FLAGS = "flags"
    EDP = "edp"      # exception descriptor pointer (novel, per the paper)
    TDTR = "tdtr"    # thread descriptor table register (novel)
    PRIV = "priv"    # privilege mode: 1 = supervisor, 0 = user


class ArchState:
    """One thread's registers: GPRs, pc, flags, control, vector.

    ``vector_dirty`` tracks whether the thread has touched vector/FP
    registers; it drives the 272-vs-784-byte footprint (Section 2,
    "Access to All Registers in the Kernel").
    """

    __slots__ = ("gprs", "pc", "flags", "edp", "tdtr", "priv",
                 "vectors", "vector_dirty", "_specs")

    def __init__(self, gpr_count: int = GPR_COUNT, vector_count: int = 16,
                 supervisor: bool = False):
        self.gprs: List[int] = [0] * gpr_count
        self.pc: int = 0
        self.flags: int = 0
        self.edp: int = 0
        self.tdtr: int = 0
        self.priv: int = 1 if supervisor else 0
        self.vectors: List[int] = [0] * vector_count
        self.vector_dirty: bool = False
        # shared frozen map -- never mutated through this reference
        self._specs: Dict[str, RegisterSpec] = register_specs(
            gpr_count, vector_count)

    # ------------------------------------------------------------------
    # named access (used by rpull/rpush and the interpreter)
    # ------------------------------------------------------------------
    def read(self, name: str) -> int:
        """Read a register by name ('r3', 'pc', 'edp', 'v0', ...)."""
        if name.startswith("r") and name[1:].isdigit():
            return self.gprs[self._gpr_index(name)]
        if name.startswith("v") and name[1:].isdigit():
            return self.vectors[self._vec_index(name)]
        if name == "pc":
            return self.pc
        if name == "flags":
            return self.flags
        if name == "edp":
            return self.edp
        if name == "tdtr":
            return self.tdtr
        if name == "priv":
            return self.priv
        raise IsaError(f"unknown register {name!r}")

    def write(self, name: str, value: int) -> None:
        """Write a register by name. No permission checks here."""
        value = int(value)
        if name.startswith("r") and name[1:].isdigit():
            self.gprs[self._gpr_index(name)] = value
        elif name.startswith("v") and name[1:].isdigit():
            self.vectors[self._vec_index(name)] = value
            self.vector_dirty = True
        elif name == "pc":
            self.pc = value
        elif name == "flags":
            self.flags = value
        elif name == "edp":
            self.edp = value
        elif name == "tdtr":
            self.tdtr = value
        elif name == "priv":
            self.priv = 1 if value else 0
        else:
            raise IsaError(f"unknown register {name!r}")

    def register_class(self, name: str) -> RegisterClass:
        """Permission class of a named register (for TDT checks)."""
        spec = self._specs.get(name)
        if spec is None:
            raise IsaError(f"unknown register {name!r}")
        return spec.reg_class

    # ------------------------------------------------------------------
    @property
    def supervisor(self) -> bool:
        return bool(self.priv)

    def footprint_bytes(self) -> int:
        """Bytes this context occupies in thread-state storage."""
        return state_bytes(with_vector=self.vector_dirty)

    def snapshot(self) -> Dict[str, int]:
        """Copy of all register values, for save/compare in tests."""
        snap = {f"r{i}": v for i, v in enumerate(self.gprs)}
        snap.update(pc=self.pc, flags=self.flags, edp=self.edp,
                    tdtr=self.tdtr, priv=self.priv)
        snap.update({f"v{i}": v for i, v in enumerate(self.vectors)})
        return snap

    def load_snapshot(self, snap: Dict[str, int]) -> None:
        for name, value in snap.items():
            self.write(name, value)

    def reset(self, pc: int = 0, supervisor: Optional[bool] = None) -> None:
        """Clear all state, optionally changing the privilege mode."""
        self.gprs = [0] * len(self.gprs)
        self.vectors = [0] * len(self.vectors)
        self.pc = pc
        self.flags = 0
        self.edp = 0
        self.tdtr = 0
        self.vector_dirty = False
        if supervisor is not None:
            self.priv = 1 if supervisor else 0

    # ------------------------------------------------------------------
    def _gpr_index(self, name: str) -> int:
        index = int(name[1:])
        if not 0 <= index < len(self.gprs):
            raise IsaError(f"GPR {name!r} out of range (have {len(self.gprs)})")
        return index

    def _vec_index(self, name: str) -> int:
        index = int(name[1:])
        if not 0 <= index < len(self.vectors):
            raise IsaError(f"vector reg {name!r} out of range")
        return index

    def __repr__(self) -> str:  # pragma: no cover
        mode = "sup" if self.priv else "usr"
        return f"<ArchState pc={self.pc:#x} {mode} fp={'y' if self.vector_dirty else 'n'}>"
