"""A socket: cores + private L1s + shared LLC + optional DRAM cache + memory.

The socket implements the *intra-socket* part of the memory system (Fig. 1):
per-core L1s kept coherent through a local directory embedded in the LLC,
with the LLC inclusive of the L1s.  Anything the socket cannot satisfy
on-chip is handed to the global coherence protocol
(:mod:`repro.coherence.protocol_base`), which owns the DRAM cache probing,
the global directory and the interconnect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..caches.block import CacheBlockState, CacheLine
from ..caches.dram_cache import DRAMCache
from ..caches.miss_predictor import RegionMissPredictor
from ..caches.sram_cache import SetAssociativeCache
from ..coherence.local_directory import MASK_CORES, LocalDirectory, cores_of
from ..coherence.messages import ServiceSource
from ..memory.address import AddressLayout
from ..memory.main_memory import MemoryController
from ..stats.counters import SimulationStats

if TYPE_CHECKING:  # pragma: no cover
    from ..coherence.protocol_base import GlobalCoherenceProtocol
    from .config import SystemConfig
    from .numa_system import NumaSystem

__all__ = ["Socket"]

_MODIFIED = CacheBlockState.MODIFIED
_SHARED = CacheBlockState.SHARED
_LOCAL_DRAM_CACHE = ServiceSource.LOCAL_DRAM_CACHE
_LOCAL_MEMORY = ServiceSource.LOCAL_MEMORY
_REMOTE_MEMORY = ServiceSource.REMOTE_MEMORY
_REMOTE_LLC = ServiceSource.REMOTE_LLC
_REMOTE_DRAM_CACHE = ServiceSource.REMOTE_DRAM_CACHE


class Socket:
    """One NUMA socket of the simulated machine."""

    def __init__(
        self,
        socket_id: int,
        config: "SystemConfig",
        system: "NumaSystem",
        *,
        with_dram_cache: bool,
    ) -> None:
        self.socket_id = socket_id
        self.config = config
        self.system = system
        self.layout: AddressLayout = system.layout

        # -- latencies (ns) -------------------------------------------------
        self.l1_latency_ns = config.l1.latency_ns
        self.llc_latency_ns = config.llc.latency_ns
        self.dram_cache_latency_ns = config.dram_cache.latency_ns
        self.dram_predictor_latency_ns = config.dram_cache.predictor_latency_ns
        self.snoop_filter_latency_ns = config.directory.snoop_filter_latency_ns

        # -- per-core L1s ---------------------------------------------------
        self.l1s: List[SetAssociativeCache] = [
            SetAssociativeCache(
                config.l1.size_bytes,
                config.l1.associativity,
                block_size=config.block_size,
                name=f"socket{socket_id}.l1[{i}]",
            )
            for i in range(config.cores_per_socket)
        ]

        # -- shared LLC + local directory -------------------------------------
        self.llc = SetAssociativeCache(
            config.llc.size_bytes,
            config.llc.associativity,
            block_size=config.block_size,
            name=f"socket{socket_id}.llc",
        )
        self.local_directory = LocalDirectory(
            latency_ns=config.directory.local_latency_ns,
            name=f"socket{socket_id}.local_dir",
        )

        # -- optional DRAM cache ------------------------------------------------
        self.dram_cache: Optional[DRAMCache] = None
        if with_dram_cache and config.dram_cache.enabled:
            predictor = RegionMissPredictor(
                entries=config.dram_cache.predictor_entries,
                region_size=config.dram_cache.region_size,
                layout=self.layout,
            )
            clean = system.protocol_is_clean
            self.dram_cache = DRAMCache(
                config.dram_cache.size_bytes,
                block_size=config.block_size,
                associativity=config.dram_cache.associativity,
                clean=clean,
                name=f"socket{socket_id}.dram_cache",
                miss_predictor=predictor,
            )

        # -- local memory ---------------------------------------------------------
        self.memory = MemoryController(
            latency_ns=config.memory.latency_ns,
            channels=config.memory.channels,
            channel_bandwidth_gbps=config.memory.channel_bandwidth_gbps,
            block_size=config.block_size,
            infinite_bandwidth=config.memory.infinite_bandwidth,
        )

        #: Set by the system after the protocol is constructed.
        self.protocol: Optional["GlobalCoherenceProtocol"] = None
        self._core_ids = [
            socket_id * config.cores_per_socket + i for i in range(config.cores_per_socket)
        ]

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------

    @property
    def stats(self) -> SimulationStats:
        return self.system.stats

    @property
    def core_ids(self) -> List[int]:
        """Global core ids housed by this socket."""
        return list(self._core_ids)

    def local_index_of(self, core_id: int) -> int:
        """Map a global core id to the socket-local L1 index."""
        return core_id - self._core_ids[0]

    # ------------------------------------------------------------------
    # The demand access path
    # ------------------------------------------------------------------

    def access(
        self, now: float, core_index: int, block: int, is_write: bool = False,
        thread_id: int = 0,
    ) -> Tuple[float, ServiceSource]:
        """Service one demand access from core ``core_index`` of this socket.

        Returns ``(latency_ns, source)`` where ``latency_ns`` is the critical
        path of the access and ``source`` identifies which level ultimately
        provided the data (or write permission).
        """
        stats = self.system.stats
        l1_line = self.l1s[core_index].lookup(block)

        if l1_line is not None and (not is_write or l1_line.state is _MODIFIED):
            stats.l1_hits += 1
            if is_write:
                l1_line.dirty = True
                llc_line = self.llc.peek(block)
                if llc_line is not None:
                    llc_line.dirty = True
            return self.l1_latency_ns, ServiceSource.L1
        stats.l1_misses += 1
        return self.access_l1_missed(now, core_index, block, is_write, thread_id)

    def access_l1_missed(
        self, now: float, core_index: int, block: int, is_write: bool, thread_id: int
    ) -> Tuple[float, ServiceSource]:
        """Continue a demand access after an L1 miss (or store permission miss).

        Split out of :meth:`access` so the compiled engine can inline the L1
        hit path into the core and enter the memory system here.  The caller
        has already performed the L1 lookup (recency and the L1 hit/miss
        statistics).

        An LLC miss is handled here end to end: the global protocol's
        transaction, the LLC fill, the back-invalidation of the LLC victim's
        L1 copies and its hand-off to the protocol, and the L1 fill.  For
        intrusive-LRU caches the LLC lookup and both fills are inlined (the
        same moves :meth:`SetAssociativeCache.lookup` and ``insert``
        make); other replacement policies go through the cache methods.

        This is also the fast-forward miss path: the sampled engine calls it
        with ``now=0.0`` inside ``functional_timing``, which installs the
        protocol's lean state-only mirrors as the timing sink.
        """
        stats = self.system.stats
        # LLC level (local directory consulted in parallel with the tag check).
        latency = self.l1_latency_ns + self.local_directory.latency_ns
        llc = self.llc
        inline_llc = llc._touch_moves
        if inline_llc:
            llc_set = llc._sets.get(block % llc.num_sets)
            llc_line = llc_set.get(block) if llc_set is not None else None
            if llc_line is not None:
                del llc_set[block]
                llc_set[block] = llc_line
        else:
            llc_line = llc.lookup(block)

        if llc_line is not None:
            latency += self.llc_latency_ns
            stats.llc_hits += 1
            if not is_write:
                latency += self._peer_intervention(core_index, block)
                self._fill_l1(core_index, block, modified=False)
                return latency, ServiceSource.LLC
            if llc_line.state is _MODIFIED:
                self._local_write_update(core_index, block)
                return latency, ServiceSource.LLC
            # Shared in the LLC: data is present but Modified permission is not.
            miss_latency, source = self.protocol.write_miss(
                now + latency, self.socket_id, block,
                thread_id=thread_id, has_shared_copy=True,
            )
            latency += miss_latency
            llc.set_state(block, _MODIFIED, dirty=True)
            self._local_write_update(core_index, block)
            return latency, source

        # LLC miss: hand the request to the global protocol.
        stats.llc_misses += 1
        if is_write:
            miss_latency, source = self.protocol.write_miss(
                now + latency, self.socket_id, block,
                thread_id=thread_id, has_shared_copy=False,
            )
        else:
            miss_latency, source = self.protocol.read_miss(now + latency, self.socket_id, block)
        # A lean mirror returns no source (fast-forward runs them under
        # scratch statistics that nothing reads, and charges no latency), so
        # only a timed transaction is accounted.
        if source is not None:
            latency += miss_latency
            if source is _LOCAL_DRAM_CACHE:
                stats.served_local_dram_cache += 1
            elif source is _LOCAL_MEMORY:
                stats.served_local_memory += 1
            elif source is _REMOTE_MEMORY:
                stats.served_remote_memory += 1
            elif source is _REMOTE_LLC:
                stats.served_remote_llc += 1
            elif source is _REMOTE_DRAM_CACHE:
                stats.served_remote_dram_cache += 1
            acc = stats.llc_miss_latency
            acc.total += miss_latency
            acc.count += 1
            if miss_latency > acc.maximum:
                acc.maximum = miss_latency

        # LLC fill.  The lookup above missed and no protocol transaction
        # fills the requester's own LLC, so the block is absent.
        state = _MODIFIED if is_write else _SHARED
        victim_block = None
        if inline_llc:
            if llc_set is None:
                llc_set = llc._sets[block % llc.num_sets] = {}
            if len(llc_set) >= llc.associativity:
                # The LRU victim's line object is reused for the new block.
                line = llc_set.pop(next(iter(llc_set)))
                victim_block = line.block
                victim_dirty = line.dirty
                line.block = block
                line.state = state
                line.dirty = is_write
            else:
                line = CacheLine(block, state, is_write)
            llc_set[block] = line
        else:
            victim = llc.insert(block, state, dirty=is_write)
            if victim is not None:
                victim_block = victim.block
                victim_dirty = victim.dirty
        local_dir = self.local_directory
        sharers = local_dir._sharers
        owners = local_dir._owners
        l1s = self.l1s
        if victim_block is not None:
            # Back-invalidate the victim's L1 copies (the LLC is inclusive)
            # and hand it to the protocol, dirty if any copy was.
            mask = sharers.pop(victim_block, 0)
            if mask:
                owners.pop(victim_block, None)
                for core in MASK_CORES[mask] if mask < 256 else cores_of(mask):
                    line = l1s[core].invalidate(victim_block)
                    if line is not None and line.dirty:
                        victim_dirty = True
            self.protocol.llc_eviction(
                now + latency, self.socket_id, victim_block, dirty=victim_dirty
            )

        # L1 fill (the L1 missed too, and the inclusive LLC did not hold the
        # block, so it is absent here as well).
        l1 = l1s[core_index]
        victim_block = None
        if l1._touch_moves:
            l1_sets = l1._sets
            l1_set = l1_sets.get(block % l1.num_sets)
            if l1_set is None:
                l1_set = l1_sets[block % l1.num_sets] = {}
            if len(l1_set) >= l1.associativity:
                line = l1_set.pop(next(iter(l1_set)))
                victim_block = line.block
                victim_dirty = line.dirty
                line.block = block
                line.state = state
                line.dirty = is_write
            else:
                line = CacheLine(block, state, is_write)
            l1_set[block] = line
        else:
            victim = l1.insert(block, state, dirty=is_write)
            if victim is not None:
                victim_block = victim.block
                victim_dirty = victim.dirty
        # Local-directory fill: the block had no L1 sharers.
        sharers[block] = 1 << core_index
        if is_write:
            owners[block] = core_index
        if victim_block is not None:
            mask = sharers.get(victim_block)
            if mask is not None:
                mask &= ~(1 << core_index)
                if mask:
                    sharers[victim_block] = mask
                else:
                    del sharers[victim_block]
                if owners.get(victim_block) == core_index:
                    del owners[victim_block]
            if victim_dirty:
                # Write the L1 victim's data back into the (inclusive) LLC.
                llc_line = llc.peek(victim_block)
                if llc_line is not None:
                    llc_line.dirty = True
        return latency, source

    def access_functional(self, core_index: int, block: int, is_write: bool,
                          thread_id: int = 0) -> None:
        """Functional-only access: advance cache/directory state, no timing.

        The sampled engine's fast-forward calls this for L1s whose lookup it
        does not inline, inside ``functional_timing`` and ``scratch_stats``:
        the timed path runs with the protocol's lean mirrors as its timing
        sink, and the latency and statistics it produces are discarded.
        """
        self.access(0.0, core_index, block, is_write, thread_id)

    # ------------------------------------------------------------------
    # Intra-socket mechanics
    # ------------------------------------------------------------------

    def _peer_intervention(self, core_index: int, block: int) -> float:
        """If a peer core's L1 owns the block modified, source it from there."""
        owners = self.local_directory._owners
        owner = owners.get(block)
        if owner is None or owner == core_index:
            return 0.0
        self.system.stats.llc_peer_hits += 1
        # The owner is downgraded to Shared; the LLC copy is made current.
        owner_line = self.l1s[owner].peek(block)
        if owner_line is not None:
            owner_line.state = CacheBlockState.SHARED
        del owners[block]
        return self.l1_latency_ns

    def _local_write_update(self, core_index: int, block: int) -> None:
        """Give core ``core_index`` the only L1 copy and mark everything dirty."""
        peers = self.local_directory.record_write(block, core_index)
        for peer in peers:
            self.l1s[peer].invalidate(block)
        self._fill_l1(core_index, block, modified=True)
        llc_line = self.llc.peek(block)
        if llc_line is not None:
            llc_line.state = CacheBlockState.MODIFIED
            llc_line.dirty = True

    def _fill_l1(self, core_index: int, block: int, *, modified: bool) -> None:
        """Install ``block`` in a core's L1 (the LLC already holds it)."""
        state = _MODIFIED if modified else _SHARED
        victim = self.l1s[core_index].insert(block, state, dirty=modified)
        # Inlined LocalDirectory.record_fill.
        local_dir = self.local_directory
        sharers = local_dir._sharers
        owners = local_dir._owners
        sharers[block] = sharers.get(block, 0) | (1 << core_index)
        if modified:
            owners[block] = core_index
        elif owners.get(block) == core_index:
            del owners[block]
        if victim is not None:
            victim_block = victim.block
            local_dir.record_eviction(victim_block, core_index)
            if victim.dirty:
                # Write the L1 victim's data back into the (inclusive) LLC.
                llc_line = self.llc.peek(victim_block)
                if llc_line is not None:
                    llc_line.dirty = True

    # ------------------------------------------------------------------
    # Entry points used by the global protocols on remote sockets
    # ------------------------------------------------------------------

    def invalidate_onchip(self, block: int) -> bool:
        """Invalidate any LLC / L1 copies of ``block``; returns True if one existed."""
        had_copy = False
        # Inlined LocalDirectory.invalidate_block.
        local_dir = self.local_directory
        mask = local_dir._sharers.pop(block, 0)
        if mask:
            local_dir._owners.pop(block, None)
            l1s = self.l1s
            for core in MASK_CORES[mask] if mask < 256 else cores_of(mask):
                l1s[core].invalidate(block)
            had_copy = True
        # Inlined SetAssociativeCache.invalidate.
        llc = self.llc
        llc_set = llc._sets.get(block % llc.num_sets)
        if llc_set and llc_set.pop(block, None) is not None:
            had_copy = True
        return had_copy

    def downgrade_block(self, block: int) -> bool:
        """Downgrade an on-chip Modified copy to Shared; returns True if it was dirty."""
        was_dirty = False
        local_dir = self.local_directory
        mask = local_dir._sharers.get(block)
        if mask is not None:
            for core in cores_of(mask):
                line = self.l1s[core].peek(block)
                if line is not None:
                    if line.dirty:
                        was_dirty = True
                    line.state = CacheBlockState.SHARED
                    line.dirty = False
            local_dir._owners.pop(block, None)
        llc_line = self.llc.peek(block)
        if llc_line is not None:
            if llc_line.dirty:
                was_dirty = True
            self.llc.downgrade(block)
        return was_dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dram = "+DRAM$" if self.dram_cache is not None else ""
        return f"Socket({self.socket_id}{dram})"
