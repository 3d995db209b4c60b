"""Directed inter-socket link with bandwidth (busy-until) accounting."""

from __future__ import annotations

from typing import Dict, List

from .packet import MessageClass

__all__ = ["Link"]


class Link:
    """One directed inter-socket link (e.g. one direction of a QPI link).

    Table II gives 25.6 GB/s per link.  Like the memory channels, the link
    uses busy-until accounting: a packet arriving while the link is still
    serialising earlier packets waits for its turn, which is how QPI
    congestion manifests as latency.  The
    :class:`~repro.interconnect.network.Interconnect` advances that state
    inline in ``send``.  Fig. 2's ``inf_qpi_bw`` idealisation disables the
    queueing term.
    """

    def __init__(self, src: int, dst: int, bandwidth_bytes_per_ns: float,
                 *, infinite_bandwidth: bool = False) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")
        self.src = src
        self.dst = dst
        self.bandwidth_bytes_per_ns = bandwidth_bytes_per_ns
        self.infinite_bandwidth = infinite_bandwidth
        self.busy_until = 0.0
        self.last_arrival = 0.0
        #: The per-class message counts of every route that crosses this
        #: link, and each class's serialisation time on it.  The interconnect
        #: registers both; it counts messages and never accumulates time.
        self.route_counts: List[Dict[MessageClass, int]] = []
        self.service_ns: Dict[MessageClass, float] = {}

    @property
    def busy_time(self) -> float:
        """Serialisation time of every packet that crossed this link."""
        service_ns = self.service_ns
        return sum(
            count * service_ns[cls] for counts in self.route_counts for cls, count in counts.items()
        )

    def utilisation(self, elapsed_ns: float) -> float:
        """Fraction of time this link was busy over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_time / elapsed_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.src}->{self.dst}, busy {self.busy_time:.1f} ns)"
