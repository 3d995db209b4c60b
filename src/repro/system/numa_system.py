"""NUMA machine assembly: sockets, interconnect, directories, protocol, cores.

:class:`NumaSystem` wires a :class:`~repro.system.config.SystemConfig` into a
complete simulated machine and exposes the pieces the simulation driver and
the experiments need.  The coherence design is selected by name through
:data:`PROTOCOL_REGISTRY`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from ..coherence.baseline import BaselineProtocol
from ..coherence.directory import GlobalDirectory
from ..coherence.full_directory import FullDirectoryProtocol
from ..coherence.protocol_base import GlobalCoherenceProtocol
from ..coherence.snoopy import SnoopyProtocol
from ..core.c3d_full_dir import C3DFullDirectoryProtocol
from ..core.c3d_protocol import C3DProtocol
from ..core.page_classifier import PrivateSharedClassifier
from ..cpu.processor import Core
from ..interconnect.network import Interconnect
from ..interconnect.topology import make_topology
from ..memory.address import AddressLayout
from ..memory.allocation import AddressMapper, make_policy
from ..stats.counters import SimulationStats
from .config import SystemConfig
from .socket import Socket

__all__ = ["NumaSystem", "PROTOCOL_REGISTRY", "build_system"]


#: Mapping from the paper's design names to protocol classes.
PROTOCOL_REGISTRY: Dict[str, Type[GlobalCoherenceProtocol]] = {
    "baseline": BaselineProtocol,
    "snoopy": SnoopyProtocol,
    "full-dir": FullDirectoryProtocol,
    "c3d": C3DProtocol,
    "c3d-full-dir": C3DFullDirectoryProtocol,
}


class NumaSystem:
    """A fully assembled multi-socket machine ready to be driven by traces."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stats = SimulationStats()
        self.layout = AddressLayout(config.block_size, config.page_size)
        self.policy = make_policy(config.allocation_policy, config.num_sockets)
        self.mapper = AddressMapper(self.policy, self.layout)

        protocol_cls = PROTOCOL_REGISTRY[config.protocol]
        #: Read by sockets while they build their DRAM caches.
        self.protocol_is_clean = protocol_cls.clean_dram_cache

        topology = make_topology(config.interconnect.topology, config.num_sockets)
        self.interconnect = Interconnect(
            topology,
            hop_latency_ns=config.interconnect.hop_latency_ns,
            link_bandwidth_gbps=config.interconnect.link_bandwidth_gbps,
            control_packet_bytes=config.interconnect.control_packet_bytes,
            data_packet_bytes=config.interconnect.data_packet_bytes,
            zero_latency=config.interconnect.zero_latency,
            infinite_bandwidth=config.interconnect.infinite_bandwidth,
        )
        self.directories: List[GlobalDirectory] = [
            GlobalDirectory(socket_id, latency_ns=config.directory.latency_ns)
            for socket_id in range(config.num_sockets)
        ]
        self.page_classifier: Optional[PrivateSharedClassifier] = (
            PrivateSharedClassifier(layout=self.layout) if config.broadcast_filter else None
        )

        self.sockets: List[Socket] = [
            Socket(socket_id, config, self, with_dram_cache=protocol_cls.uses_dram_cache)
            for socket_id in range(config.num_sockets)
        ]

        if issubclass(protocol_cls, C3DProtocol):
            self.protocol: GlobalCoherenceProtocol = protocol_cls(
                self, broadcast_filter=config.broadcast_filter
            )
        else:
            self.protocol = protocol_cls(self)
        for sock in self.sockets:
            sock.protocol = self.protocol

        self.cores: List[Core] = [
            Core(
                core_id,
                self.sockets[config.socket_of_core(core_id)],
                clock_ghz=config.processor.clock_ghz,
                store_buffer_entries=config.processor.store_buffer_entries,
                thread_id=core_id,
            )
            for core_id in range(config.total_cores)
        ]

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def num_sockets(self) -> int:
        return self.config.num_sockets

    @property
    def num_cores(self) -> int:
        return self.config.total_cores

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    def socket_of_core(self, core_id: int) -> Socket:
        return self.sockets[self.config.socket_of_core(core_id)]

    def inter_socket_bytes(self) -> int:
        """Total bytes injected into the inter-socket interconnect."""
        return self.interconnect.bytes_sent

    # ------------------------------------------------------------------
    # Measurement control
    # ------------------------------------------------------------------

    def reset_measurement(self) -> None:
        """Discard statistics collected so far (end of a warm-up phase).

        Cache, directory and DRAM-cache *contents* are preserved -- only the
        counters restart -- which is exactly what the paper's warm-up phase
        accomplishes.
        """
        self.stats = SimulationStats()
        self.interconnect.reset_counters()

    # ------------------------------------------------------------------
    # Consistency checking (used by tests and the verification harness)
    # ------------------------------------------------------------------

    def check_invariants(self) -> List[str]:
        """Return a list of invariant violations (empty when consistent).

        Checks the socket-granularity Single-Writer/Multiple-Reader property,
        the clean-DRAM-cache property for clean designs, and directory
        Modified-state consistency.
        """
        violations: List[str] = []

        # SWMR at socket granularity: at most one socket holds a block Modified.
        modified_holders: Dict[int, List[int]] = {}
        for sock in self.sockets:
            for block in sock.llc.resident_blocks():
                line = sock.llc.peek(block)
                if line is not None and line.state.value == "M":
                    modified_holders.setdefault(block, []).append(sock.socket_id)
        for block, holders in modified_holders.items():
            if len(holders) > 1:
                violations.append(
                    f"block {block:#x} Modified in multiple sockets: {holders}"
                )
            other_sharers = [
                sock.socket_id
                for sock in self.sockets
                if sock.socket_id not in holders and sock.llc.contains(block)
            ]
            if other_sharers:
                violations.append(
                    f"block {block:#x} Modified in socket {holders} but also "
                    f"present in {other_sharers}"
                )

        # Clean DRAM caches never hold dirty lines.
        if self.protocol.clean_dram_cache:
            for sock in self.sockets:
                if sock.dram_cache is None:
                    continue
                for block in sock.dram_cache.resident_blocks():
                    line = sock.dram_cache.peek(block)
                    if line is not None and line.dirty:
                        violations.append(
                            f"dirty line {block:#x} in clean DRAM cache of socket "
                            f"{sock.socket_id}"
                        )

        # Directory Modified entries must point at a socket that actually holds
        # the block: on chip for the clean/no-DRAM-cache designs, on chip or in
        # the DRAM cache for the dirty-DRAM-cache designs (full-dir).
        for directory in self.directories:
            for entry in directory.entries():
                if entry.state.value == "M":
                    owner = entry.owner
                    has_copy = False
                    if owner is not None:
                        owner_socket = self.sockets[owner]
                        has_copy = owner_socket.llc.contains(entry.block)
                        if not has_copy and not self.protocol.clean_dram_cache:
                            has_copy = (
                                owner_socket.dram_cache is not None
                                and owner_socket.dram_cache.contains(entry.block)
                            )
                    if not has_copy:
                        violations.append(
                            f"directory[{directory.home_socket}] says block "
                            f"{entry.block:#x} is Modified at socket {owner}, "
                            "which has no on-chip copy"
                        )
        return violations


def build_system(config: SystemConfig) -> NumaSystem:
    """Convenience constructor mirroring the public API used in the examples."""
    return NumaSystem(config)
