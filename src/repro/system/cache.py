"""Set-associative cache structure with LRU replacement.

Used for both the private L1s (32 KB, 2-way) and the shared-L2 banks
(256 KB, 16-way) of the paper's Table 2.  The cache stores an opaque
``line`` object per block (protocol state lives in the controllers);
this module only provides placement, lookup and LRU eviction.

Each set is a plain insertion-ordered ``dict`` (oldest first): a touch
re-inserts the block at the end and eviction takes the first key.  A
chip has tens of thousands of sets and most L2 sets are never used, so
a set gets its own dict only on its first insert; until then it points
at one shared empty dict that is never written.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

L = TypeVar("L")

#: ``@dataclass(slots=True)`` for the records the controllers keep per
#: block (lines, MSHRs, directory entries).  Python 3.9 has no
#: ``slots`` option and gets a plain dataclass that behaves the same.
slotted_dataclass = (
    functools.partial(dataclass, slots=True)
    if sys.version_info >= (3, 10)
    else dataclass
)

#: Cache block size in bytes (Table 2).
BLOCK_BYTES = 64

#: Storage of every set that has never held a line (read-only).
_EMPTY_SET: Dict = {}


class SetAssociativeCache(Generic[L]):
    """A ``num_sets`` x ``ways`` cache indexed by block address."""

    def __init__(self, size_bytes: int, ways: int, block_bytes: int = BLOCK_BYTES):
        if size_bytes % (ways * block_bytes):
            raise ValueError("cache size must be a multiple of way * block size")
        self.ways = ways
        self.block_bytes = block_bytes
        self.num_sets = size_bytes // (ways * block_bytes)
        if self.num_sets < 1:
            raise ValueError("cache too small for its associativity")
        #: Per set: block -> line, ordered oldest-first for LRU.
        self._sets: List[Dict[int, L]] = [_EMPTY_SET] * self.num_sets

    # ------------------------------------------------------------------
    def set_index(self, block: int) -> int:
        """Cache set a block maps to."""
        return block % self.num_sets

    def lookup(self, block: int, touch: bool = True) -> Optional[L]:
        """The line for ``block`` or None; refreshes LRU on hit."""
        cache_set = self._sets[self.set_index(block)]
        line = cache_set.get(block)
        if line is not None and touch:
            del cache_set[block]
            cache_set[block] = line
        return line

    def contains(self, block: int) -> bool:
        """Whether the block is resident (no LRU update)."""
        return block in self._sets[self.set_index(block)]

    def insert(self, block: int, line: L) -> Optional[Tuple[int, L]]:
        """Insert a line; returns the evicted (block, line) if any.

        The caller must make room decisions *before* inserting when an
        eviction has protocol side effects — use :meth:`victim_for`.
        """
        index = self.set_index(block)
        cache_set = self._sets[index]
        if cache_set is _EMPTY_SET:
            cache_set = self._sets[index] = {}
        evicted = None
        if block in cache_set:
            del cache_set[block]
        elif len(cache_set) >= self.ways:
            oldest = next(iter(cache_set))
            evicted = (oldest, cache_set.pop(oldest))
        cache_set[block] = line
        return evicted

    def victim_for(self, block: int, evictable=None) -> Optional[Tuple[int, L]]:
        """The (block, line) that inserting ``block`` would evict.

        ``evictable(block)`` may veto candidates (e.g. lines with an
        in-flight transaction); the least-recently-used eligible line
        is chosen.  Returns None when no eviction is needed; raises if
        every line in the set is vetoed.
        """
        cache_set = self._sets[self.set_index(block)]
        if block in cache_set or len(cache_set) < self.ways:
            return None
        for candidate in cache_set.items():
            if evictable is None or evictable(candidate[0]):
                return candidate
        raise RuntimeError("no evictable line in cache set")

    def remove(self, block: int) -> Optional[L]:
        """Remove and return the block's line, or None."""
        return self._sets[self.set_index(block)].pop(block, None)

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total resident lines."""
        return sum(len(s) for s in self._sets)

    def items(self) -> Iterator[Tuple[int, L]]:
        """Iterate (block, line) pairs across all sets."""
        for cache_set in self._sets:
            yield from cache_set.items()

    @property
    def capacity_blocks(self) -> int:
        """Total line capacity of the cache."""
        return self.num_sets * self.ways
