"""Inter-socket network model combining a topology, per-link bandwidth and
per-hop latency, with traffic accounting by message class.

Table II: 20 ns per hop one way (40 ns round trip per hop, as used by the
methodology section), 25.6 GB/s per link, 16-byte control / 80-byte data
packets.  Fig. 2's idealisations map to ``zero_latency`` (0-QPI-latency) and
``infinite_bandwidth`` (inf-QPI-bandwidth).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .link import Link
from .packet import CONTROL_PACKET_BYTES, DATA_PACKET_BYTES, MessageClass, PacketKind
from .topology import Topology

__all__ = ["Interconnect"]


class Interconnect:
    """The socket-to-socket interconnect (QPI/HyperTransport-like)."""

    def __init__(
        self,
        topology: Topology,
        *,
        hop_latency_ns: float = 20.0,
        link_bandwidth_gbps: float = 25.6,
        control_packet_bytes: int = CONTROL_PACKET_BYTES,
        data_packet_bytes: int = DATA_PACKET_BYTES,
        zero_latency: bool = False,
        infinite_bandwidth: bool = False,
    ) -> None:
        if hop_latency_ns < 0:
            raise ValueError("hop_latency_ns must be non-negative")
        if link_bandwidth_gbps <= 0:
            raise ValueError("link_bandwidth_gbps must be positive")
        self.topology = topology
        self.hop_latency_ns = 0.0 if zero_latency else hop_latency_ns
        self.control_packet_bytes = control_packet_bytes
        self.data_packet_bytes = data_packet_bytes
        self.zero_latency = zero_latency
        self.infinite_bandwidth = infinite_bandwidth
        self._links: Dict[Tuple[int, int], Link] = {
            (a, b): Link(a, b, link_bandwidth_gbps, infinite_bandwidth=infinite_bandwidth)
            for a, b in topology.links()
        }
        # Physical packet size and per-link serialisation time per message
        # class, precomputed so the hot path never evaluates the
        # MessageClass.kind property or divides (every link has the same
        # bandwidth).
        self._packet_sizes: Dict[MessageClass, int] = {
            cls: (self.data_packet_bytes if cls.kind is PacketKind.DATA
                  else self.control_packet_bytes)
            for cls in MessageClass
        }
        self._service_ns: Dict[MessageClass, float] = {
            cls: size / link_bandwidth_gbps for cls, size in self._packet_sizes.items()
        }
        for link in self._links.values():
            link.service_ns = self._service_ns
        # Route table, ``[src][dst] -> (links, base latency, message counts)``.
        # Topologies are static, so each pair's unloaded latency
        # (``hop_latency_ns`` per hop) and the links whose busy-until state
        # a packet advances (none with infinite bandwidth) are resolved once.
        # Traffic is counted only as messages per class and pair: every byte
        # total and every link's busy time is derived from these counts on
        # read, never accumulated per send.
        n = topology.num_sockets
        self._hop_counts = [[topology.hops(src, dst) for dst in range(n)] for src in range(n)]
        self._routes: List[List[Tuple[Tuple[Link, ...], float, Dict[MessageClass, int]]]] = [
            [self._route_entry(topology.route(src, dst)) for dst in range(n)]
            for src in range(n)
        ]

    def _route_entry(self, hops: List[Tuple[int, int]]):
        links = () if self.infinite_bandwidth else tuple(self._links[hop] for hop in hops)
        counts = {cls: 0 for cls in MessageClass}
        for link in links:
            link.route_counts.append(counts)
        return links, self.hop_latency_ns * len(hops), counts

    # -- basic properties -----------------------------------------------------

    @property
    def num_sockets(self) -> int:
        return self.topology.num_sockets

    def packet_size(self, message_class: MessageClass) -> int:
        """Physical size in bytes of a packet of the given class."""
        return self._packet_sizes[message_class]

    def hops(self, src: int, dst: int) -> int:
        """Hop count between two sockets."""
        return self._hop_counts[src][dst]

    # -- transfers ------------------------------------------------------------

    def send(self, now: float, src: int, dst: int, message_class: MessageClass) -> float:
        """Send one packet from ``src`` to ``dst``; return its network latency.

        A same-socket "send" is free and generates no traffic (the message
        never leaves the chip).
        """
        if src == dst:
            return 0.0
        links, latency, counts = self._routes[src][dst]
        counts[message_class] += 1
        service_time = self._service_ns[message_class]
        arrival = now
        for link in links:
            # Busy-until bandwidth accounting.  Packets that arrive out of
            # time order (trace-driven core skew) are assumed to use an
            # earlier idle slot and are charged no queueing delay -- see
            # :meth:`repro.memory.main_memory.MemoryChannel.occupy` for why.
            if arrival >= link.last_arrival:
                link.last_arrival = arrival
                busy_until = link.busy_until
                if busy_until > arrival:
                    latency += busy_until - arrival
                    link.busy_until = busy_until + service_time
                else:
                    link.busy_until = arrival + service_time
            arrival = now + latency
        return latency

    def round_trip(
        self,
        now: float,
        src: int,
        dst: int,
        request_class: MessageClass = MessageClass.REQUEST,
        response_class: MessageClass = MessageClass.DATA_RESPONSE,
    ) -> float:
        """Request/response pair between two sockets; returns total latency."""
        if src == dst:
            return 0.0
        request_latency = self.send(now, src, dst, request_class)
        response_latency = self.send(now + request_latency, dst, src, response_class)
        return request_latency + response_latency

    def broadcast(
        self,
        now: float,
        src: int,
        message_class: MessageClass = MessageClass.BROADCAST_INVALIDATION,
        *,
        collect_acks: bool = True,
        ack_class: MessageClass = MessageClass.ACK,
    ) -> float:
        """Send a packet from ``src`` to every other socket.

        Returns the time until the last destination has received the packet
        (plus the ack collection latency when ``collect_acks``), which is the
        completion latency of a broadcast invalidation.
        """
        worst = 0.0
        for dst in range(self.num_sockets):
            if dst == src:
                continue
            out_latency = self.send(now, src, dst, message_class)
            total = out_latency
            if collect_acks:
                total += self.send(now + out_latency, dst, src, ack_class)
            worst = max(worst, total)
        return worst

    # -- statistics (derived from the per-pair message counts) ---------------

    def _pair_counts(self):
        """``(hops, counts)`` of every source/destination pair."""
        for hop_row, row in zip(self._hop_counts, self._routes):
            for hops, (_links, _latency, counts) in zip(hop_row, row):
                yield hops, counts

    @property
    def messages_by_class(self) -> Dict[MessageClass, int]:
        """Messages sent per message class."""
        totals = {cls: 0 for cls in MessageClass}
        for _hops, counts in self._pair_counts():
            for cls, count in counts.items():
                totals[cls] += count
        return totals

    @property
    def bytes_by_class(self) -> Dict[MessageClass, int]:
        """Bytes sent per message class."""
        sizes = self._packet_sizes
        return {cls: count * sizes[cls] for cls, count in self.messages_by_class.items()}

    @property
    def messages_sent(self) -> int:
        """Messages injected into the interconnect."""
        return sum(self.messages_by_class.values())

    @property
    def bytes_sent(self) -> int:
        """Bytes injected into the interconnect (each message counted once)."""
        return sum(self.bytes_by_class.values())

    def reset_counters(self) -> None:
        """Zero the traffic counters (used when a warm-up phase ends)."""
        for _hops, counts in self._pair_counts():
            for cls in counts:
                counts[cls] = 0

    def data_bytes(self) -> int:
        """Bytes sent in data-carrying packets."""
        return sum(
            size for cls, size in self.bytes_by_class.items() if cls.kind is PacketKind.DATA
        )

    def control_bytes(self) -> int:
        """Bytes sent in control packets."""
        return self.bytes_sent - self.data_bytes()

    def link_bytes(self) -> int:
        """Bytes summed over every link traversal (counts each hop)."""
        sizes = self._packet_sizes
        return sum(
            hops * sum(count * sizes[cls] for cls, count in counts.items())
            for hops, counts in self._pair_counts()
        )

    def link_utilisations(self, elapsed_ns: float) -> Dict[Tuple[int, int], float]:
        """Per-link utilisation over ``elapsed_ns``."""
        return {key: link.utilisation(elapsed_ns) for key, link in self._links.items()}

    def busiest_link_utilisation(self, elapsed_ns: float) -> float:
        """Utilisation of the most loaded link (0 when there are no links)."""
        utilisations = self.link_utilisations(elapsed_ns)
        if not utilisations:
            return 0.0
        return max(utilisations.values())
