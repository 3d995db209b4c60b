"""Tests for the set-associative SRAM cache model (L1 / LLC)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.block import CacheBlockState
from repro.caches.sram_cache import SetAssociativeCache


def make_cache(size=1024, ways=2, name="test"):
    return SetAssociativeCache(size, ways, block_size=64, name=name)


def test_geometry():
    cache = make_cache(size=1024, ways=2)
    assert cache.num_sets == 8
    assert cache.set_index(0) == 0
    assert cache.set_index(8) == 0
    assert cache.set_index(9) == 1


def test_miss_then_hit():
    cache = make_cache()
    assert cache.lookup(5) is None
    cache.insert(5)
    line = cache.lookup(5)
    assert line is not None and line.block == 5


def test_insert_existing_upgrades_state_without_victim():
    cache = make_cache()
    cache.insert(5, CacheBlockState.SHARED)
    victim = cache.insert(5, CacheBlockState.MODIFIED, dirty=True)
    assert victim is None
    line = cache.peek(5)
    assert line.state is CacheBlockState.MODIFIED and line.dirty


def test_lru_eviction_order():
    cache = make_cache(size=256, ways=2)  # 2 sets, 2 ways
    # Set 0 holds blocks 0 and 2; touching 0 makes 2 the LRU victim.
    cache.insert(0)
    cache.insert(2)
    cache.lookup(0)
    victim = cache.insert(4)  # maps to set 0
    assert victim is not None and victim.block == 2


def test_dirty_eviction_reported():
    cache = make_cache(size=256, ways=2)
    cache.insert(0, CacheBlockState.MODIFIED, dirty=True)
    cache.insert(2)
    cache.lookup(2)
    victim = cache.insert(4)
    assert victim.block == 0
    assert victim.needs_writeback


def test_invalidate_removes_line():
    cache = make_cache()
    cache.insert(7)
    line = cache.invalidate(7)
    assert line is not None
    assert not cache.contains(7)
    assert cache.invalidate(7) is None


def test_downgrade_clears_modified_and_dirty():
    cache = make_cache()
    cache.insert(3, CacheBlockState.MODIFIED, dirty=True)
    line = cache.downgrade(3)
    assert line.state is CacheBlockState.SHARED
    assert not line.dirty


def test_set_state_requires_residency():
    cache = make_cache()
    with pytest.raises(KeyError):
        cache.set_state(1, CacheBlockState.MODIFIED)


def test_occupancy_and_resident_blocks():
    cache = make_cache()
    for block in range(5):
        cache.insert(block)
    assert cache.occupancy() == 5
    assert set(cache.resident_blocks()) == set(range(5))
    cache.clear()
    assert cache.occupancy() == 0


def test_hit_rate():
    # A hit is a lookup that returns the resident line; a miss returns None.
    cache = make_cache()
    cache.insert(0)
    assert [cache.lookup(block) is not None for block in (0, 1, 0)] == [True, False, True]


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        SetAssociativeCache(0, 1)
    with pytest.raises(ValueError):
        SetAssociativeCache(32, 1, block_size=64)
    with pytest.raises(ValueError):
        SetAssociativeCache(192, 4, block_size=64)  # 3 blocks not divisible by 4 ways


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(blocks):
    cache = SetAssociativeCache(1024, 2, block_size=64)
    capacity = 1024 // 64
    for block in blocks:
        cache.insert(block)
        assert cache.occupancy() <= capacity
    # Every set respects its associativity.
    for block in blocks:
        resident_in_set = [
            b for b in cache.resident_blocks() if cache.set_index(b) == cache.set_index(block)
        ]
        assert len(resident_in_set) <= 2


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200))
def test_most_recently_inserted_block_is_always_resident(blocks):
    cache = SetAssociativeCache(512, 2, block_size=64)
    for block in blocks:
        cache.insert(block)
        assert cache.contains(block)
