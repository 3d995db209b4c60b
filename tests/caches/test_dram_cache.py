"""Tests for the direct-mapped DRAM cache (clean and dirty modes)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.dram_cache import DRAMCache
from repro.caches.miss_predictor import RegionMissPredictor


def make_cache(size=1024, clean=True, predictor=False):
    mp = RegionMissPredictor(entries=16, region_size=256) if predictor else None
    return DRAMCache(size, clean=clean, miss_predictor=mp)


def test_direct_mapped_geometry():
    cache = make_cache(size=1024)
    assert cache.num_sets == 16
    assert cache.set_index(0) == 0
    assert cache.set_index(16) == 0


def test_probe_miss_then_hit():
    cache = make_cache()
    probe = cache.probe(3)
    assert not probe.hit
    cache.insert(3)
    probe = cache.probe(3)
    assert probe.hit and probe.array_accessed


def test_direct_mapped_conflict_eviction():
    cache = make_cache(size=1024)
    cache.insert(0)
    victim = cache.insert(16)  # same set
    assert victim is not None and victim.block == 0
    assert not cache.contains(0)
    assert cache.contains(16)


def test_clean_mode_never_stores_dirty():
    cache = make_cache(clean=True)
    cache.insert(5, dirty=True)
    assert not cache.peek(5).dirty
    # Clean victims never require a write-back.
    victim = cache.insert(5 + cache.num_sets, dirty=True)
    assert victim is not None and not victim.needs_writeback


def test_dirty_mode_stores_and_reports_dirty_victims():
    cache = make_cache(clean=False)
    cache.insert(5, dirty=True)
    assert cache.peek(5).dirty
    victim = cache.insert(5 + cache.num_sets)
    assert victim.block == 5
    assert victim.needs_writeback


def test_reinsert_same_block_keeps_dirty_bit():
    cache = make_cache(clean=False)
    cache.insert(5, dirty=True)
    cache.insert(5, dirty=False)
    assert cache.peek(5).dirty


def test_invalidate():
    cache = make_cache()
    cache.insert(9)
    line = cache.invalidate(9)
    assert line is not None
    assert not cache.contains(9)
    assert cache.invalidate(9) is None


def test_mark_clean():
    cache = make_cache(clean=False)
    cache.insert(4, dirty=True)
    cache.mark_clean(4)
    assert not cache.peek(4).dirty


def test_predictor_skips_array_on_confident_miss():
    cache = make_cache(predictor=True)
    probe = cache.probe(7)
    assert not probe.hit and not probe.array_accessed


def test_predictor_mispredict_still_finds_resident_block():
    # Thrash the predictor's region table so it forgets a resident block.
    predictor = RegionMissPredictor(entries=1, region_size=64)
    cache = DRAMCache(64 * 64, miss_predictor=predictor)
    cache.insert(0)
    cache.insert(50)   # displaces region 0 from the 1-entry table
    probe = cache.probe(0)
    assert probe.hit
    assert probe.array_accessed


def test_hit_rate_and_occupancy():
    cache = make_cache()
    cache.insert(1)
    assert cache.probe(1).hit
    assert not cache.probe(2).hit
    assert cache.occupancy() == 1
    assert list(cache.resident_blocks()) == [1]
    cache.clear()
    assert cache.occupancy() == 0


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        DRAMCache(0)
    with pytest.raises(ValueError):
        DRAMCache(32, block_size=64)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=300),
       st.booleans())
def test_clean_cache_invariant_holds_under_any_insertion_sequence(blocks, dirty):
    cache = DRAMCache(1024, clean=True)
    for block in blocks:
        cache.insert(block, dirty=dirty)
    assert all(not cache.peek(b).dirty for b in cache.resident_blocks())
    assert cache.occupancy() <= cache.num_sets


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 200), st.booleans()), min_size=1, max_size=200))
def test_predictor_and_cache_agree_on_absence(ops):
    """If the predictor says "absent" for an untracked/cleared block and the
    table has not displaced the region, the block really is absent."""
    predictor = RegionMissPredictor(entries=1024, region_size=256)
    cache = DRAMCache(4096, miss_predictor=predictor)
    for block, invalidate in ops:
        if invalidate:
            cache.invalidate(block)
        else:
            cache.insert(block)
    for block, _ in ops:
        if predictor.predicts_miss(block):
            assert not cache.contains(block)


def _cache_state(cache):
    predictor = cache.miss_predictor
    return (
        [(index, line.block, line.state, line.dirty) for index, line in cache._lines.items()],
        list(predictor._table.items()) if predictor is not None else None,
    )


@settings(max_examples=150, deadline=None)
@given(
    num_sets=st.sampled_from([16, 64, 100]),
    entries=st.sampled_from([4, 64]),
    region_blocks=st.sampled_from([4, 64]),
    with_predictor=st.booleans(),
    spans=st.lists(
        st.tuples(st.integers(0, 3000), st.integers(1, 110)), min_size=1, max_size=4
    ),
)
def test_bulk_insert_clean_matches_per_block_inserts(
    num_sets, entries, region_blocks, with_predictor, spans
):
    """The vectorised prewarm fill leaves exactly the per-block state behind.

    Covers disjoint and overlapping ranges, ranges that wrap around the set
    index, ranges longer than the cache and predictor tables too small for
    the batched path (both fall back to the per-block loop), down to the
    tag store's dict order and the predictor's LRU order.
    """
    def build():
        predictor = (
            RegionMissPredictor(entries=entries, region_size=64 * region_blocks)
            if with_predictor else None
        )
        return DRAMCache(num_sets * 64, clean=True, miss_predictor=predictor)

    ranges = [range(start, start + length) for start, length in spans]
    bulk, reference = build(), build()
    assert bulk.bulk_insert_clean(*ranges) == sum(len(r) for r in ranges)
    for block_range in ranges:
        for block in block_range:
            reference.insert(block, dirty=False)
    assert _cache_state(bulk) == _cache_state(reference)
