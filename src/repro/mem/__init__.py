"""Memory subsystem: address map, backing store, DRAM timing, caches,
intra-node coherence, TLB and paging.

The address map (:mod:`repro.mem.addressmap`) implements the paper's
prefix scheme (Section III-B / Fig. 3): the 14 most significant bits of
a 48-bit physical address name the owning node (ids start at 1; prefix
0 means "local"), so the RMC needs no translation tables.

Data is stored for real — :mod:`repro.mem.backing` keeps NumPy-backed
sparse physical memory — so the simulator is functional, not just a
timing model.
"""

from repro.mem.addressmap import AddressMap
from repro.mem.backing import BackingStore
from repro.mem.dram import DRAMTiming
from repro.mem.controller import MemoryController
from repro.mem.cache import (
    AccessResult,
    BlockResult,
    Cache,
    CacheStats,
)
from repro.mem.coherence import CoherenceDomain, MESIState
from repro.mem.tlb import TLB
from repro.mem.paging import AddressSpace, PageTable

__all__ = [
    "AddressMap",
    "BackingStore",
    "DRAMTiming",
    "MemoryController",
    "AccessResult",
    "BlockResult",
    "Cache",
    "CacheStats",
    "CoherenceDomain",
    "MESIState",
    "TLB",
    "PageTable",
    "AddressSpace",
]
