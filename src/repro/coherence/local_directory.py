"""Local (intra-socket) directory.

Table II: "Local Directory -- 7-cycle, embedded in L2, full sharing vector".
Within a socket the LLC is inclusive of the per-core L1s, and the local
directory records which cores hold each LLC-resident block and which core (if
any) owns it in Modified state.  The socket uses it to invalidate peer L1
copies on writes and to source data from a peer L1 that holds the block
modified (avoiding an LLC data access).

The sharing vector is an integer bit mask per block (bit ``c`` set when core
``c`` holds the block), plus a separate owner map, so an L1 fill costs two
dict operations and no per-block object.  :class:`repro.system.socket.Socket`
updates the masks directly on its hot paths; the methods below are the
public interface, and return sets of core ids.

The local directory settings are identical in all evaluated designs, so it is
part of the coherence substrate rather than of any particular protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

__all__ = ["LocalDirectoryEntry", "LocalDirectory", "MASK_CORES", "cores_of"]

#: ``MASK_CORES[mask]`` is the set of cores whose bits are set in ``mask``,
#: for the sharing vectors of sockets with up to eight cores.
MASK_CORES = tuple(
    frozenset(core for core in range(8) if mask >> core & 1) for mask in range(256)
)


def cores_of(mask: int) -> FrozenSet[int]:
    """The set of cores whose bits are set in the sharing vector ``mask``."""
    if mask < 256:
        return MASK_CORES[mask]
    return frozenset(core for core in range(mask.bit_length()) if mask >> core & 1)


@dataclass
class LocalDirectoryEntry:
    """Snapshot of which cores cache a block inside a socket."""

    block: int
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None  # core holding the block Modified, if any


class LocalDirectory:
    """Tracks L1 residency for every block held in the socket's LLC."""

    def __init__(self, *, latency_ns: float = 7 / 3.0, name: str = "local_directory") -> None:
        self.latency_ns = latency_ns
        self.name = name
        #: block -> non-zero sharing vector (a block with no sharers has no key).
        self._sharers: Dict[int, int] = {}
        #: block -> core holding it Modified (always one of its sharers).
        self._owners: Dict[int, int] = {}

    # -- queries ------------------------------------------------------------

    def peek(self, block: int) -> Optional[LocalDirectoryEntry]:
        """Return a snapshot of ``block``'s entry (None when no core caches it)."""
        mask = self._sharers.get(block)
        if mask is None:
            return None
        return LocalDirectoryEntry(block, set(cores_of(mask)), self._owners.get(block))

    def sharers_of(self, block: int) -> FrozenSet[int]:
        return cores_of(self._sharers.get(block, 0))

    def owner_of(self, block: int) -> Optional[int]:
        return self._owners.get(block)

    # -- updates --------------------------------------------------------------

    def record_fill(self, block: int, core: int, *, modified: bool = False) -> None:
        """Record that ``core`` now holds ``block`` in its L1."""
        sharers = self._sharers
        sharers[block] = sharers.get(block, 0) | (1 << core)
        if modified:
            self._owners[block] = core
        elif self._owners.get(block) == core:
            del self._owners[block]

    def record_write(self, block: int, core: int) -> FrozenSet[int]:
        """Record a write by ``core``; returns the peer cores to invalidate."""
        bit = 1 << core
        peers = cores_of(self._sharers.get(block, 0) & ~bit)
        self._sharers[block] = bit
        self._owners[block] = core
        return peers

    def record_eviction(self, block: int, core: int) -> None:
        """Record that ``core`` dropped its L1 copy of ``block``."""
        mask = self._sharers.get(block)
        if mask is None:
            return
        mask &= ~(1 << core)
        if mask:
            self._sharers[block] = mask
        else:
            del self._sharers[block]
        if self._owners.get(block) == core:
            del self._owners[block]

    def invalidate_block(self, block: int) -> FrozenSet[int]:
        """Drop all L1 residency info for ``block``; returns the cores affected."""
        mask = self._sharers.pop(block, 0)
        if mask:
            self._owners.pop(block, None)
        return cores_of(mask)

    def __len__(self) -> int:
        return len(self._sharers)
