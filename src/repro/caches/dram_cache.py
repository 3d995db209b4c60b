"""Block-based DRAM cache (Table II: 1 GB, direct-mapped, 64-byte blocks,
40 ns access, region-based miss predictor).

Two operating modes are supported, selected by ``clean``:

* ``clean=True`` (C3D): the cache never holds dirty data.  Modified LLC
  victims are inserted *clean*; the owning socket is responsible for writing
  the data through to memory.  ``insert`` therefore never produces a victim
  that needs a writeback.
* ``clean=False`` (snoopy / full-dir designs): modified LLC victims are
  absorbed dirty, and evicting a dirty line produces a writeback to memory.

The paper's configuration is direct-mapped (``associativity=1``), stored as
one flat ``set index -> line`` dict.  For sensitivity sweeps the cache can
also be built set-associative, in which case each set is an insertion-ordered
dict managed as an intrusive O(1) LRU (hits move the line to the back, the
front line is the victim) -- no victim-list allocation, mirroring
:class:`~repro.caches.sram_cache.SetAssociativeCache`.

The DRAM cache is *non-inclusive* with respect to the on-chip hierarchy in
all designs (section IV-C): it never forces LLC invalidations, and LLC fills
do not have to allocate here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import Dict, Iterator, Optional

from .block import CacheBlockState, CacheLine
from .miss_predictor import RegionMissPredictor

__all__ = ["DRAMCache", "DRAMCacheProbe"]


@dataclass
class DRAMCacheProbe:
    """Result of a DRAM-cache probe.

    ``hit`` tells whether the block was found; ``array_accessed`` tells
    whether the DRAM array had to be accessed (False when the miss predictor
    confidently predicted a miss, in which case the array latency is saved).
    """

    hit: bool
    array_accessed: bool
    dirty: bool = False


# Probe outcomes are immutable to callers, so the hot path returns shared
# instances instead of allocating one per probe.
_PROBE_MISS_BYPASS = DRAMCacheProbe(hit=False, array_accessed=False)
_PROBE_MISS_ARRAY = DRAMCacheProbe(hit=False, array_accessed=True)
_PROBE_HIT_CLEAN = DRAMCacheProbe(hit=True, array_accessed=True, dirty=False)
_PROBE_HIT_DIRTY = DRAMCacheProbe(hit=True, array_accessed=True, dirty=True)


class DRAMCache:
    """Direct-mapped (or optionally set-associative) DRAM cache of 64-byte blocks."""

    def __init__(
        self,
        size_bytes: int,
        *,
        block_size: int = 64,
        associativity: int = 1,
        clean: bool = True,
        name: str = "dram_cache",
        miss_predictor: Optional[RegionMissPredictor] = None,
    ) -> None:
        if size_bytes <= 0 or block_size <= 0 or associativity <= 0:
            raise ValueError("cache geometry parameters must be positive")
        total_blocks = size_bytes // block_size
        if total_blocks == 0:
            raise ValueError(f"{name}: size {size_bytes} smaller than one block")
        if total_blocks % associativity:
            raise ValueError(
                f"{name}: {total_blocks} blocks not divisible by associativity {associativity}"
            )
        self.num_sets = total_blocks // associativity
        self.name = name
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.clean = clean
        self.miss_predictor = miss_predictor
        # Direct-mapped storage: set index -> line.  Associative storage:
        # set index -> insertion-ordered {block: line} (front = LRU victim).
        self._lines: Dict[int, CacheLine] = {}
        self._sets: Dict[int, Dict[int, CacheLine]] = {}

    # -- geometry -----------------------------------------------------------

    def set_index(self, block: int) -> int:
        """Set index of block number ``block``."""
        return block % self.num_sets

    # -- queries ------------------------------------------------------------

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident (no recency update)."""
        if self.associativity == 1:
            line = self._lines.get(block % self.num_sets)
            return line is not None and line.block == block
        cache_set = self._sets.get(block % self.num_sets)
        return cache_set is not None and block in cache_set

    def peek(self, block: int) -> Optional[CacheLine]:
        """Return the resident line for ``block`` without side effects."""
        if self.associativity == 1:
            line = self._lines.get(block % self.num_sets)
            if line is not None and line.block == block:
                return line
            return None
        cache_set = self._sets.get(block % self.num_sets)
        if cache_set is None:
            return None
        return cache_set.get(block)

    def probe(self, block: int) -> DRAMCacheProbe:
        """Look up ``block``, consulting the miss predictor first.

        When the predictor predicts a miss the DRAM array is not accessed;
        the caller should charge only the predictor latency in that case.
        """
        if self.associativity == 1:
            line = self._lines.get(block % self.num_sets)
            if line is not None and line.block != block:
                line = None
        else:
            line = self.peek(block)
        predictor = self.miss_predictor
        if predictor is not None:
            # Inlined RegionMissPredictor.predicts_miss.
            table = predictor._table
            region = (block * predictor._block_size) // predictor.region_size
            bits = table.get(region)
            if bits is None:
                predicted_miss = True
            else:
                table.move_to_end(region)
                predicted_miss = not bits & (1 << (block % predictor._blocks_per_region))
            # A predicted miss skips the array only when the tag store agrees:
            # on a mis-prediction (the predictor lost this region's residency
            # information) the array is accessed, so a resident -- possibly
            # dirty -- line is never silently ignored.
            if predicted_miss and line is None:
                return _PROBE_MISS_BYPASS
        if line is None:
            return _PROBE_MISS_ARRAY
        if self.associativity > 1:
            # Intrusive LRU touch: move the line to the back of its set.
            cache_set = self._sets[block % self.num_sets]
            del cache_set[block]
            cache_set[block] = line
        return _PROBE_HIT_DIRTY if line.dirty else _PROBE_HIT_CLEAN

    # -- mutations ------------------------------------------------------------

    def insert(
        self,
        block: int,
        *,
        dirty: bool = False,
        state: CacheBlockState = CacheBlockState.SHARED,
    ) -> Optional[CacheLine]:
        """Insert ``block``, returning the displaced victim line if any.

        In clean mode the inserted line is always stored clean regardless of
        the ``dirty`` argument (the caller performs the memory write-through),
        and victims never require a writeback.  The returned victim is the
        displaced :class:`CacheLine` itself (exposing ``block``, ``state``,
        ``dirty`` and ``needs_writeback``), avoiding a per-eviction record
        allocation.
        """
        stored_dirty = dirty and not self.clean
        predictor = self.miss_predictor
        if self.associativity == 1:
            index = block % self.num_sets
            lines = self._lines
            existing = lines.get(index)

            victim: Optional[CacheLine] = None
            if existing is not None:
                if existing.block == block:
                    existing.dirty = existing.dirty or stored_dirty
                    existing.state = state
                    return None
                # The displaced line itself is the victim record (it is no
                # longer referenced by the cache, so handing it out is safe).
                victim = existing
                if predictor is not None:
                    predictor.note_evict(existing.block)

            lines[index] = CacheLine(block, state, stored_dirty)
            if predictor is not None:
                predictor.note_insert(block)
            return victim

        cache_set = self._sets.get(block % self.num_sets)
        if cache_set is None:
            cache_set = self._sets[block % self.num_sets] = {}
        existing = cache_set.get(block)
        if existing is not None:
            existing.dirty = existing.dirty or stored_dirty
            existing.state = state
            del cache_set[block]
            cache_set[block] = existing
            return None
        victim = None
        if len(cache_set) >= self.associativity:
            victim = cache_set.pop(next(iter(cache_set)))
            if predictor is not None:
                predictor.note_evict(victim.block)
        cache_set[block] = CacheLine(block, state, stored_dirty)
        if predictor is not None:
            predictor.note_insert(block)
        return victim

    def bulk_insert_clean(self, *block_sets) -> int:
        """Insert each iterable of block numbers clean, in order (prewarm fast path).

        Semantically identical to calling ``insert(block, dirty=False)`` for
        every block of every argument in order -- same final cache and
        predictor state -- but vectorised when the arguments are contiguous,
        pairwise disjoint block ranges filling an empty direct-mapped cache
        (the prewarm's cold, warm and hot regions):
        set conflicts are resolved on index intervals, only the lines that
        survive every later range are built (with one C-level ``map`` per
        run), and predictor presence bits are updated per *region* instead
        of per block.  Any other input, and predictor tables without room
        for every region the ranges touch (displacement order cannot be
        batched), go through :meth:`insert` block by block.  Returns the
        number of blocks processed.
        """
        if self._can_fill_ranges(block_sets):
            return self._bulk_fill_ranges(block_sets)
        count = 0
        for blocks in block_sets:
            for block in blocks:
                self.insert(block, dirty=False)
                count += 1
        return count

    def _can_fill_ranges(self, block_sets) -> bool:
        """Whether :meth:`_bulk_fill_ranges` reproduces the per-block inserts."""
        if self.associativity != 1 or self._lines:
            return False
        if not all(
            isinstance(blocks, range) and blocks.step == 1 and 0 < len(blocks) <= self.num_sets
            for blocks in block_sets
        ):
            return False
        ordered = sorted(block_sets, key=attrgetter("start"))
        if any(before.stop > after.start for before, after in zip(ordered, ordered[1:])):
            return False
        predictor = self.miss_predictor
        if predictor is None:
            return True
        # The region-batched predictor update cannot reproduce the order of
        # table displacements, so every region the ranges touch must fit.
        bpr = predictor._blocks_per_region
        regions = sum((blocks.stop - 1) // bpr - blocks.start // bpr + 1 for blocks in block_sets)
        return len(predictor._table) + regions < predictor.entries

    def _bulk_fill_ranges(self, ranges) -> int:
        """Vectorised clean fill of disjoint block ranges into an empty cache.

        The tag store is tracked as occupant *runs* ``[lo, hi, block)``
        (set ``i`` in ``[lo, hi)`` holds block ``block + i - lo``), so a
        range evicts whole sub-runs and no per-block work is needed until
        the surviving lines are built at the end.  The ranges are disjoint,
        so an occupied set always holds a different block: every conflict
        is an eviction (of a clean line).
        """
        num_sets = self.num_sets
        predictor = self.miss_predictor
        runs = []           # occupant runs, [lo, hi, block at lo]
        first_fills = []    # set-index ranges in first-occupation order
        count = 0
        for blocks in ranges:
            start, stop = blocks.start, blocks.stop
            count += stop - start
            first = start % num_sets
            if first + (stop - start) <= num_sets:
                pieces = ((first, first + stop - start, start),)
            else:
                pieces = ((first, num_sets, start),
                          (0, first + stop - start - num_sets, start + num_sets - first))
            # (inserting block, victim block, length), in inserting-block order.
            victims = []
            for lo, hi, block in pieces:
                kept = []
                overlaps = []
                for run in runs:
                    run_lo, run_hi, run_block = run
                    over_lo = lo if lo > run_lo else run_lo
                    over_hi = hi if hi < run_hi else run_hi
                    if over_lo >= over_hi:
                        kept.append(run)
                        continue
                    overlaps.append((over_lo, over_hi, run_block + over_lo - run_lo))
                    if run_lo < over_lo:
                        kept.append((run_lo, over_lo, run_block))
                    if over_hi < run_hi:
                        kept.append((over_hi, run_hi, run_block + over_hi - run_lo))
                overlaps.sort()
                cursor = lo
                for over_lo, over_hi, victim_block in overlaps:
                    if cursor < over_lo:
                        first_fills.append(range(cursor, over_lo))
                    victims.append((block + over_lo - lo, victim_block, over_hi - over_lo))
                    cursor = over_hi
                if cursor < hi:
                    first_fills.append(range(cursor, hi))
                kept.append((lo, hi, block))
                runs = kept
            if predictor is not None:
                self._predictor_fill_range(start, stop, victims)

        lines = self._lines
        # Keys first, in first-occupation order (the per-block path's dict
        # order), then the surviving line of every run.
        lines.update(zip(chain.from_iterable(first_fills), repeat(None)))
        for lo, hi, block in runs:
            lines.update(zip(range(lo, hi), map(CacheLine, range(block, block + hi - lo))))
        return count

    def _predictor_fill_range(self, start: int, stop: int, victims) -> None:
        """Predictor updates of inserting ``[start, stop)`` over ``victims``.

        Preserves the exact LRU order of the per-block path: within each
        region's chunk of the range the victims are noted first (in block
        order; a run of victims in one region is one clear and one move),
        then the chunk's presence bits are OR-ed in and its region moves to
        the back.  The caller guarantees table headroom (no displacement).
        """
        predictor = self.miss_predictor
        table = predictor._table
        table_get = table.get
        move_to_end = table.move_to_end
        bpr = predictor._blocks_per_region
        for region in range(start // bpr, (stop - 1) // bpr + 1):
            chunk_first = max(start, region * bpr)
            chunk_stop = min(stop, (region + 1) * bpr)
            for block, victim_block, length in victims:
                lo = max(block, chunk_first)
                hi = min(block + length, chunk_stop)
                if lo >= hi:
                    continue
                victim_lo = victim_block + lo - block
                victim_hi = victim_block + hi - block
                for victim_region in range(victim_lo // bpr, (victim_hi - 1) // bpr + 1):
                    run_lo = max(victim_lo, victim_region * bpr)
                    run_hi = min(victim_hi, (victim_region + 1) * bpr)
                    bits = table_get(victim_region)
                    if bits is not None:
                        table[victim_region] = bits & ~(
                            ((1 << (run_hi - run_lo)) - 1) << (run_lo % bpr)
                        )
                        move_to_end(victim_region)
            mask = ((1 << (chunk_stop - chunk_first)) - 1) << (chunk_first % bpr)
            bits = table_get(region)
            if bits is None:
                table[region] = mask
            else:
                move_to_end(region)
                table[region] = bits | mask

    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Remove ``block`` (e.g. on a broadcast invalidation); return the line."""
        if self.associativity == 1:
            index = block % self.num_sets
            line = self._lines.get(index)
            if line is None or line.block != block:
                return None
            del self._lines[index]
        else:
            cache_set = self._sets.get(block % self.num_sets)
            line = cache_set.pop(block, None) if cache_set is not None else None
            if line is None:
                return None
        predictor = self.miss_predictor
        if predictor is not None:
            # Inlined RegionMissPredictor.note_evict.
            table = predictor._table
            region = (block * predictor._block_size) // predictor.region_size
            bits = table.get(region)
            if bits is not None:
                table[region] = bits & ~(1 << (block % predictor._blocks_per_region))
                table.move_to_end(region)
        return line

    def mark_clean(self, block: int) -> None:
        """Clear the dirty bit of a resident block (after a writeback)."""
        line = self.peek(block)
        if line is not None:
            line.dirty = False

    def clear(self) -> None:
        """Drop all contents."""
        self._lines.clear()
        self._sets.clear()

    # -- inspection -----------------------------------------------------------

    def occupancy(self) -> int:
        """Number of valid resident blocks."""
        if self.associativity == 1:
            return sum(1 for line in self._lines.values() if line.valid)
        return sum(len(cache_set) for cache_set in self._sets.values())

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over resident block numbers."""
        if self.associativity == 1:
            for line in self._lines.values():
                if line.valid:
                    yield line.block
        else:
            for cache_set in self._sets.values():
                yield from cache_set.keys()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DRAMCache(name={self.name!r}, size={self.size_bytes}, "
            f"clean={self.clean}, occupancy={self.occupancy()})"
        )
