"""Tests for the intra-socket (local) directory."""

from repro.coherence.local_directory import LocalDirectory


def test_record_fill_and_sharers():
    ld = LocalDirectory()
    ld.record_fill(5, core=0)
    ld.record_fill(5, core=1)
    assert ld.sharers_of(5) == {0, 1}
    assert ld.owner_of(5) is None


def test_modified_fill_sets_owner():
    ld = LocalDirectory()
    ld.record_fill(5, core=2, modified=True)
    assert ld.owner_of(5) == 2
    ld.record_fill(5, core=2, modified=False)
    assert ld.owner_of(5) is None


def test_record_write_returns_peers_to_invalidate():
    ld = LocalDirectory()
    ld.record_fill(5, core=0)
    ld.record_fill(5, core=1)
    peers = ld.record_write(5, core=0)
    assert peers == {1}
    assert ld.sharers_of(5) == {0}
    assert ld.owner_of(5) == 0


def test_record_eviction_removes_core_and_entry():
    ld = LocalDirectory()
    ld.record_fill(5, core=0)
    ld.record_fill(5, core=1)
    ld.record_eviction(5, core=0)
    assert ld.sharers_of(5) == {1}
    ld.record_eviction(5, core=1)
    assert ld.peek(5) is None
    assert len(ld) == 0


def test_eviction_of_unknown_block_is_noop():
    ld = LocalDirectory()
    ld.record_eviction(9, core=0)
    assert len(ld) == 0


def test_invalidate_block_returns_all_cores():
    ld = LocalDirectory()
    ld.record_fill(7, core=0)
    ld.record_fill(7, core=3)
    cores = ld.invalidate_block(7)
    assert cores == {0, 3}
    assert ld.invalidate_block(7) == set()

