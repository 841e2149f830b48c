"""Sparse data memory image for the functional simulator.

Memory is modelled as a sparse map of aligned 64-bit words.  Sub-word
accesses (bytes, 16-bit words, 32-bit longwords) read-modify-write the
containing quadword, which matches what the workload kernels need without
dragging in a full byte-array memory system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

_WORD_BYTES = 8
_WORD_MASK = 0xFFFFFFFFFFFFFFFF


class MemoryError_(RuntimeError):
    """Raised on misaligned or otherwise malformed memory accesses."""


def _to_signed(value: int, bits: int) -> int:
    sign_bit = 1 << (bits - 1)
    value &= (1 << bits) - 1
    return value - (1 << bits) if value & sign_bit else value


@dataclass
class Memory:
    """Sparse 64-bit word-grained memory.

    Attributes:
        words: aligned address -> 64-bit unsigned word value.
    """

    words: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_image(cls, image: Mapping[int, int]) -> "Memory":
        """Build a memory from a program's initial data segment.

        Each image entry is one aligned quadword, so it needs no
        read-modify-write: only the alignment check and the 64-bit mask.
        """
        words = {address: value & _WORD_MASK for address, value in image.items()}
        for address in words:
            if address % _WORD_BYTES:
                raise MemoryError_(f"misaligned 8-byte store at {address:#x}")
        return cls(words)

    # -- raw word access -------------------------------------------------------

    def _word(self, aligned: int) -> int:
        return self.words.get(aligned, 0)

    def load(self, address: int, size: int, *, signed: bool = True) -> int:
        """Load ``size`` bytes (1, 2, 4 or 8) from ``address``.

        Accesses must be naturally aligned; quadword loads return unsigned
        64-bit values, narrower loads are sign- or zero-extended per
        ``signed``.
        """
        if size not in (1, 2, 4, 8):
            raise MemoryError_(f"unsupported access size {size}")
        if address % size:
            raise MemoryError_(f"misaligned {size}-byte load at {address:#x}")
        aligned = address & ~(_WORD_BYTES - 1)
        offset = address - aligned
        word = self._word(aligned)
        raw = (word >> (offset * 8)) & ((1 << (size * 8)) - 1)
        if size == 8:
            return raw
        return _to_signed(raw, size * 8) if signed else raw

    def store(self, address: int, value: int, size: int) -> None:
        """Store ``size`` bytes of ``value`` at ``address`` (naturally aligned)."""
        if size not in (1, 2, 4, 8):
            raise MemoryError_(f"unsupported access size {size}")
        if address % size:
            raise MemoryError_(f"misaligned {size}-byte store at {address:#x}")
        aligned = address & ~(_WORD_BYTES - 1)
        offset = address - aligned
        mask = ((1 << (size * 8)) - 1) << (offset * 8)
        word = self._word(aligned)
        word = (word & ~mask) | ((value << (offset * 8)) & mask)
        self.words[aligned] = word & _WORD_MASK

    # -- convenience -----------------------------------------------------------

    def load_word(self, address: int) -> int:
        """Load an aligned 64-bit word (unsigned)."""
        return self.load(address, 8)

    def store_word(self, address: int, value: int) -> None:
        """Store an aligned 64-bit word."""
        self.store(address, value, 8)

    def checksum(self) -> int:
        """Order-independent checksum of memory contents (used in tests)."""
        total = 0
        for address, value in self.words.items():
            total = (total + (address * 1000003 ^ value)) & _WORD_MASK
        return total
