"""Tests for the global directory slice and the storage-cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.directory import (
    DirectoryCostModel,
    DirectoryState,
    GlobalDirectory,
)


def test_untracked_block_is_invalid():
    directory = GlobalDirectory(0)
    assert directory.lookup(5) is None
    assert directory.state_of(5) is DirectoryState.INVALID
    # A lookup does not allocate an entry.
    assert len(directory) == 0


def test_set_modified_and_shared_transitions():
    directory = GlobalDirectory(0)
    assert directory.state_of(7) is DirectoryState.INVALID
    entry = directory.set_modified(7, owner=2)
    assert entry.state is DirectoryState.MODIFIED
    assert entry.owner == 2
    assert directory.state_of(7) is DirectoryState.MODIFIED
    entry = directory.set_shared(7, {1, 2})
    assert entry.state is DirectoryState.SHARED
    assert entry.owner is None
    assert entry.sharers == {1, 2}
    assert directory.state_of(7) is DirectoryState.SHARED
    assert len(directory) == 1


def test_add_sharer_allocates_shared_entry():
    directory = GlobalDirectory(0)
    directory.add_sharer(3, 1)
    directory.add_sharer(3, 2)
    entry = directory.peek(3)
    assert entry.state is DirectoryState.SHARED
    assert entry.sharers == {1, 2}


def test_add_sharer_on_modified_entry_rejected():
    directory = GlobalDirectory(0)
    directory.set_modified(3, owner=0)
    with pytest.raises(ValueError):
        directory.add_sharer(3, 1)


def test_set_shared_requires_sharers():
    directory = GlobalDirectory(0)
    with pytest.raises(ValueError):
        directory.set_shared(3, set())


def test_remove_sharer_deallocates_when_empty():
    directory = GlobalDirectory(0)
    directory.set_shared(3, {1, 2})
    directory.remove_sharer(3, 1)
    assert directory.peek(3).sharers == {2}
    directory.remove_sharer(3, 2)
    assert directory.peek(3) is None
    assert directory.state_of(3) is DirectoryState.INVALID
    assert len(directory) == 0


def test_invalidate_untracked_is_noop():
    directory = GlobalDirectory(0)
    directory.add_sharer(3, 1)
    directory.invalidate(9)
    assert directory.state_of(9) is DirectoryState.INVALID
    assert directory.peek(3).sharers == {1}
    assert len(directory) == 1


def test_peak_entries_tracked():
    directory = GlobalDirectory(0)
    for block in range(10):
        directory.add_sharer(block, 0)
    for block in range(10):
        directory.invalidate(block)
    assert directory.peak_entries == 10
    assert len(directory) == 0


def test_cost_model_matches_paper_section_iii_b():
    model = DirectoryCostModel(num_sockets=4, provisioning=2.0)
    assert model.storage_megabytes(256 * 2**20) == pytest.approx(32.0, rel=0.01)
    assert model.storage_megabytes(1 << 30) == pytest.approx(128.0, rel=0.01)
    minimal = DirectoryCostModel(num_sockets=4, provisioning=1.0)
    assert minimal.storage_megabytes(256 * 2**20) == pytest.approx(16.0, rel=0.01)


def test_cost_model_entry_bits_scale_with_sockets():
    small = DirectoryCostModel(num_sockets=2)
    large = DirectoryCostModel(num_sockets=8)
    assert large.entry_bits() == small.entry_bits() + 6


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 3), st.sampled_from(["M", "S", "I"])),
                max_size=100))
def test_directory_entries_always_well_formed(ops):
    directory = GlobalDirectory(0)
    for block, socket, action in ops:
        if action == "M":
            directory.set_modified(block, socket)
        elif action == "S":
            directory.set_shared(block, {socket})
        else:
            directory.invalidate(block)
    for entry in directory.entries():
        assert entry.state in (DirectoryState.MODIFIED, DirectoryState.SHARED)
        if entry.state is DirectoryState.MODIFIED:
            assert entry.owner is not None
        assert entry.sharers
