"""Coherence transaction vocabulary shared by all protocol implementations.

The paper's protocol (Fig. 5) is expressed in terms of GetS / GetX / Upgrade
requests and PutX write-backs exchanged between the LLC, the DRAM-cache
controller and the global directory.  This module defines those request
types and the service sources a protocol reports back to the socket: a
serviced LLC miss returns a plain ``(latency_ns, source)`` tuple, so the
timed miss path allocates no result record.
"""

from __future__ import annotations

import enum

__all__ = ["CoherenceRequestType", "ServiceSource"]


class CoherenceRequestType(enum.Enum):
    """Request types from Fig. 5 of the paper."""

    GETS = "GetS"        # read request
    GETX = "GetX"        # write request (requester lacks the data)
    UPGRADE = "Upgrade"  # write request, requester already holds the data in Shared
    PUTX = "PutX"        # write-back of modified data

    __hash__ = object.__hash__  # identity hashing, C-level

    @property
    def is_write(self) -> bool:
        return self in (CoherenceRequestType.GETX, CoherenceRequestType.UPGRADE)


class ServiceSource(enum.Enum):
    """Where a request was ultimately served from (for AMAT breakdowns)."""

    L1 = "l1"
    LOCAL_L1_PEER = "local_l1_peer"
    LLC = "llc"
    LOCAL_DRAM_CACHE = "local_dram_cache"
    LOCAL_MEMORY = "local_memory"
    REMOTE_LLC = "remote_llc"
    REMOTE_DRAM_CACHE = "remote_dram_cache"
    REMOTE_MEMORY = "remote_memory"
    STORE_BUFFER = "store_buffer"

    __hash__ = object.__hash__  # identity hashing, C-level

    @property
    def is_off_socket(self) -> bool:
        return self in (
            ServiceSource.REMOTE_LLC,
            ServiceSource.REMOTE_DRAM_CACHE,
            ServiceSource.REMOTE_MEMORY,
        )

    @property
    def is_memory(self) -> bool:
        return self in (ServiceSource.LOCAL_MEMORY, ServiceSource.REMOTE_MEMORY)
