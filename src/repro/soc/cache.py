"""Set-associative cache geometry.

Chip II of the paper contains a dual-core Cortex-A5 with caches; although
the A5 executes no program during the measurements, its caches are clocked
and contribute to the background noise.  The idle background model uses
the cache's structural size (tag/data arrays) for clock-tree power.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a cache."""

    size_bytes: int = 16 * 1024
    line_bytes: int = 32
    associativity: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError("cache size must be divisible by line size x associativity")

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.num_sets * self.associativity

    @property
    def tag_bits(self) -> int:
        """Approximate tag width (32-bit physical addresses assumed)."""
        offset_bits = self.line_bytes.bit_length() - 1
        index_bits = self.num_sets.bit_length() - 1
        return 32 - offset_bits - index_bits
