"""Set-associative cache models and the two-level memory hierarchy.

The timing model only needs access latencies (it does not move data), so a
cache here is a tag store with LRU replacement.  The hierarchy mirrors the
paper's: split 32KB L1 instruction and data caches, a unified 2MB L2 and a
100-cycle main memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .config import CacheConfig, MachineConfig


@dataclass
class CacheStats:
    """Access/miss counters for one cache."""

    accesses: int = 0
    misses: int = 0


class Cache:
    """A set-associative tag store with LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self._config = config
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self._config.line_bytes
        return line % self._config.num_sets, line

    def access(self, address: int) -> bool:
        """Access ``address``; returns True on a hit (and updates LRU state)."""
        self.stats.accesses += 1
        set_index, tag = self._locate(address)
        entries = self._sets[set_index]
        if tag in entries:
            entries.remove(tag)
            entries.insert(0, tag)
            return True
        self.stats.misses += 1
        entries.insert(0, tag)
        while len(entries) > self._config.associativity:
            entries.pop()
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]


class MemoryHierarchy:
    """L1I + L1D backed by a unified L2 and main memory.

    ``instruction_latency``/``data_latency`` return the complete access
    latency in cycles for one reference, walking the hierarchy and updating
    all levels (a miss installs the line everywhere, i.e. inclusive caches).
    """

    def __init__(self, config: MachineConfig) -> None:
        self._config = config
        self.icache = Cache(config.icache)
        self.dcache = Cache(config.dcache)
        self.l2 = Cache(config.l2cache)

    def instruction_latency(self, address: int) -> int:
        """Latency of fetching the line containing ``address``."""
        if self.icache.access(address):
            return self._config.icache.hit_latency
        if self.l2.access(address):
            return self._config.icache.hit_latency + self._config.l2cache.hit_latency
        return (self._config.icache.hit_latency + self._config.l2cache.hit_latency
                + self._config.memory_latency)

    def data_latency(self, address: int) -> int:
        """Latency of a data access to ``address``."""
        if self.dcache.access(address):
            return self._config.dcache.hit_latency
        if self.l2.access(address):
            return self._config.dcache.hit_latency + self._config.l2cache.hit_latency
        return (self._config.dcache.hit_latency + self._config.l2cache.hit_latency
                + self._config.memory_latency)

    def line_address(self, address: int, *, instruction: bool = True) -> int:
        line_bytes = (self._config.icache.line_bytes if instruction
                      else self._config.dcache.line_bytes)
        return address - (address % line_bytes)
