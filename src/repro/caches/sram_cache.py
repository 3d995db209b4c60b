"""Set-associative SRAM cache model used for the L1s and the LLC.

The model is functional (hit/miss, MSI state, dirty bits, LRU) with latency
left to the owning socket, which knows the configured tag/data latencies.
It keeps no counters of its own: the hit/miss statistics the experiments
report are :class:`~repro.stats.counters.SimulationStats` fields, counted
by the socket.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from .block import CacheBlockState, CacheLine
from .replacement import LRUPolicy, ReplacementPolicy

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache:
    """A set-associative, write-back cache of 64-byte blocks.

    Parameters
    ----------
    size_bytes:
        Total data capacity.
    associativity:
        Number of ways per set.
    block_size:
        Block size in bytes.
    name:
        Label used in error messages (e.g. ``"socket0.llc"``).
    replacement:
        Replacement policy instance; defaults to LRU.
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        *,
        block_size: int = 64,
        name: str = "cache",
        replacement: Optional[ReplacementPolicy] = None,
    ) -> None:
        if size_bytes <= 0 or associativity <= 0 or block_size <= 0:
            raise ValueError("cache geometry parameters must be positive")
        total_blocks = size_bytes // block_size
        if total_blocks == 0:
            raise ValueError(f"{name}: size {size_bytes} smaller than one block")
        if total_blocks % associativity:
            raise ValueError(
                f"{name}: {total_blocks} blocks not divisible by associativity {associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.num_sets = total_blocks // associativity
        self.replacement = replacement if replacement is not None else LRUPolicy()
        # Intrusive recency order: each set is an insertion-ordered dict whose
        # front entry is the victim, so LRU/FIFO evict in O(1) without the
        # per-eviction victim-list allocation of ``choose_victim``.
        self._intrusive = getattr(self.replacement, "intrusive", False)
        self._touch_moves = self._intrusive and getattr(self.replacement, "touch_moves", False)
        self._sets: Dict[int, Dict[int, CacheLine]] = {}

    # -- geometry -----------------------------------------------------------

    def set_index(self, block: int) -> int:
        """Return the set index of block number ``block``."""
        return block % self.num_sets

    # -- queries ------------------------------------------------------------

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident (does not update recency)."""
        cache_set = self._sets.get(block % self.num_sets)
        return cache_set is not None and block in cache_set

    def peek(self, block: int) -> Optional[CacheLine]:
        """Return the resident line for ``block`` without side effects."""
        cache_set = self._sets.get(block % self.num_sets)
        if cache_set is None:
            return None
        return cache_set.get(block)

    def lookup(self, block: int) -> Optional[CacheLine]:
        """Access ``block``: return its line (``None`` on a miss) and update recency."""
        cache_set = self._sets.get(block % self.num_sets)
        line = cache_set.get(block) if cache_set is not None else None
        if line is None:
            return None
        if self._touch_moves:
            # Move to the back of the set's recency order (dicts preserve
            # insertion order, so delete + reinsert is an O(1) move-to-end).
            del cache_set[block]
            cache_set[block] = line
        elif not self._intrusive:
            self.replacement.touch(line)
        return line

    # -- mutations ------------------------------------------------------------

    def insert(
        self,
        block: int,
        state: CacheBlockState = CacheBlockState.SHARED,
        *,
        dirty: bool = False,
    ) -> Optional[CacheLine]:
        """Insert ``block`` (allocating on fill) and return any victim.

        If the block is already resident its state/dirty bits are upgraded in
        place and no victim is produced.  The returned victim is the displaced
        :class:`CacheLine` itself (no per-eviction record allocation).
        """
        index = block % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        existing = cache_set.get(block)
        if existing is not None:
            existing.state = state
            existing.dirty = existing.dirty or dirty
            if self._touch_moves:
                del cache_set[block]
                cache_set[block] = existing
            elif not self._intrusive:
                self.replacement.touch(existing)
            return None

        victim: Optional[CacheLine] = None
        if len(cache_set) >= self.associativity:
            if self._intrusive:
                # The front of the insertion-ordered set is the LRU/FIFO victim.
                victim = cache_set.pop(next(iter(cache_set)))
            else:
                victim = self.replacement.choose_victim(cache_set.values())
                del cache_set[victim.block]

        line = CacheLine(block, state, dirty)
        cache_set[block] = line
        if not self._intrusive:
            self.replacement.on_insert(line)
        return victim

    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Remove ``block`` and return the removed line (or ``None``)."""
        cache_set = self._sets.get(block % self.num_sets)
        if not cache_set:
            return None
        return cache_set.pop(block, None)

    def downgrade(self, block: int) -> Optional[CacheLine]:
        """Transition ``block`` from MODIFIED to SHARED, returning the line."""
        line = self.peek(block)
        if line is None:
            return None
        line.state = CacheBlockState.SHARED
        line.dirty = False
        return line

    def set_state(self, block: int, state: CacheBlockState, *, dirty: Optional[bool] = None) -> None:
        """Overwrite the MSI state (and optionally the dirty bit) of a resident block."""
        line = self.peek(block)
        if line is None:
            raise KeyError(f"{self.name}: block {block:#x} not resident")
        line.state = state
        if dirty is not None:
            line.dirty = dirty

    def clear(self) -> None:
        """Drop all contents."""
        self._sets.clear()

    # -- inspection -----------------------------------------------------------

    def occupancy(self) -> int:
        """Number of resident blocks."""
        return sum(len(cache_set) for cache_set in self._sets.values())

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over the block numbers of all resident lines."""
        for cache_set in self._sets.values():
            yield from cache_set.keys()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.size_bytes}, "
            f"ways={self.associativity}, sets={self.num_sets})"
        )
