"""The benchmark's three workloads.

Every workload is a closed loop: a simulated thread issues its next
operation only after the previous one completed. A workload derives all
of its inputs from the seed it is given; the program under test only
ever sees the generated inputs (offsets, keys, payloads, op kinds).

Each workload class exposes the same steps, which :mod:`runner` times
and spans from outside:

* ``setup(seed)`` builds the system (cluster or accessors), borrows,
  allocates and populates it, and returns an instance object;
* ``warm(inst)`` settles caches, TLBs and swap pools before measuring;
* ``counters(inst)`` snapshots the public counters of every layer
  (:func:`layers.derive` turns two snapshots into per-layer metrics);
* ``measure(inst)`` runs the fixed-size measured op stream and returns
  a :class:`Measured` record;
* ``verify(inst, measured)`` checks every op result against an oracle
  that is independent of the program and returns the number of ops
  that raised or returned wrong data.

Sizes are constructor arguments so the smoke tests can run each
workload tiny; the command line always uses the defaults.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from hostspeed import slowdown
from repro.apps.access import SessionAccessor
from repro.apps.btree import BTree
from repro.apps.database import MiniDB
from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig
from repro.mem.backing import BackingStore
from repro.model.fastsim import RemoteMemAccessor, SwapAccessor
from repro.model.latency import LatencyModel
from repro.swap.remoteswap import RemoteSwap
from repro.units import CACHE_LINE, PAGE_SIZE, mib

__all__ = [
    "WORKLOADS",
    "Measured",
    "UncachedRemoteRead",
    "MiniDBRemoteMix",
    "BTreeSwapFast",
]

#: every raw counter a snapshot carries; a workload that does not touch
#: a layer reports zeros for it
COUNTER_KEYS = (
    "sim.events",
    "sim.now",
    "mem.cache.hits",
    "mem.cache.misses",
    "mem.cache.writebacks",
    "mem.tlb.hits",
    "mem.tlb.misses",
    "mem.controller.reads",
    "mem.controller.writes",
    "mem.dram.row_hits",
    "mem.dram.row_misses",
    "ht.link.packets",
    "ht.link.bytes",
    "rmc.client_requests",
    "rmc.server_requests",
    "rmc.server_nacks",
    "rmc.retransmissions",
    "rmc.prefetch_issued",
    "rmc.prefetch_hits",
    "cluster.core.nack_retries",
    "apps.db.rows_read",
    "apps.db.rows_written",
    "apps.btree.nodes_visited",
    "model.accessor_calls",
    "model.remote.time_ns",
    "swap.faults",
    "swap.accesses",
    "swap.dirty_writebacks",
    "swap.time_ns",
)


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """The benchmark's own input generator (independent of the
    program's seeding helpers, so the program only sees the inputs)."""
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


@dataclass
class Measured:
    """Outcome of one measured op stream."""

    #: simulated latency of every op, in completion order
    latencies_ns: np.ndarray
    #: ops per host-time sample (see :meth:`tick`)
    batch_ops: int
    #: what the oracle needs, one entry per op
    records: list = field(default_factory=list)
    #: ops that raised instead of returning
    raised: int = 0
    #: host ops/s of every ``batch_ops`` consecutive completed ops
    batch_rates: list = field(default_factory=list)
    #: host slowdown measured right after each batch
    batch_slowdowns: list = field(default_factory=list)
    #: host time those measurements took (inside the measured phase,
    #: outside every batch)
    calibration_s: float = 0.0
    _pending: int = 0
    _since: float = field(default_factory=time.perf_counter)

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    def tick(self) -> None:
        """Count one completed op; every ``batch_ops`` ops, record the
        batch's host rate and the host's current slowdown. Many short
        samples, each paired with the host speed of its moment, let the
        runner report a median that speed drift cannot move far."""
        self._pending += 1
        if self._pending == self.batch_ops:
            now = time.perf_counter()
            self.batch_rates.append(self.batch_ops / (now - self._since))
            self.batch_slowdowns.append(slowdown())
            self._since = time.perf_counter()
            self.calibration_s += self._since - now
            self._pending = 0


def _zero_counters() -> dict:
    return dict.fromkeys(COUNTER_KEYS, 0)


def _cluster_counters(cluster: Cluster, sessions) -> dict:
    """Sum the packet tier's public counters over the whole cluster."""
    c = _zero_counters()
    c["sim.events"] = cluster.sim.events_scheduled
    c["sim.now"] = cluster.sim.now
    for node in cluster.nodes.values():
        for cache in node.caches:
            c["mem.cache.hits"] += cache.stats.hits
            c["mem.cache.misses"] += cache.stats.misses
            c["mem.cache.writebacks"] += cache.stats.writebacks
        for mc in node.mcs:
            c["mem.controller.reads"] += mc.reads.value
            c["mem.controller.writes"] += mc.writes.value
            c["mem.dram.row_hits"] += mc.timing.row_hits.value
            c["mem.dram.row_misses"] += mc.timing.row_misses.value
        rmc = node.rmc
        c["rmc.client_requests"] += rmc.client_requests.value
        c["rmc.server_requests"] += rmc.server_requests.value
        c["rmc.server_nacks"] += rmc.server_nacks.value
        c["rmc.retransmissions"] += rmc.retransmissions.value
        c["rmc.prefetch_issued"] += rmc.prefetch_issued.value
        c["rmc.prefetch_hits"] += rmc.prefetch_hits.value
        for core in node.cores:
            c["cluster.core.nack_retries"] += core.nack_retries.value
    for sess in sessions:
        c["mem.tlb.hits"] += sess.aspace.tlb.hits
        c["mem.tlb.misses"] += sess.aspace.tlb.misses
    now = cluster.sim.now
    areas = {}
    for edge, link in cluster.network.links.items():
        c["ht.link.packets"] += link.packets.value
        c["ht.link.bytes"] += link.bytes.value
        # links are built at simulated time 0, so average * now is the
        # busy time so far; the runner turns two of these into the
        # measured phase's utilization
        areas[edge] = link.occupancy.average(now) * now
    c["link_busy_ns"] = areas
    return c


def blocked_kinds(rng: np.random.Generator, block: tuple, count: int) -> np.ndarray:
    """*count* op kinds in shuffled blocks: kind ``k`` appears
    ``block[k]`` times in every block, so every seed and every stretch
    of the stream runs the same mix and only the order is random."""
    pattern = np.repeat(np.arange(len(block), dtype=np.int8), block)
    blocks = np.tile(pattern, (-(-count // pattern.size), 1))
    return rng.permuted(blocks, axis=1).ravel()[:count]


def _digest_of(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class UncachedRemoteRead:
    """Uncached 64-byte random reads against one donor (Fig. 7/8 traffic).

    On the default 16-node 4x4 mesh a control thread and four threads
    on each of several stressor nodes read one donor's memory through
    the RMC, uncached, so every read is a packet round trip. The load
    is sized so the donor RMC NACKs a share of requests. Nearly all
    host time is the event engine and the packet pipes; the caches,
    ``model`` and ``swap`` are bypassed. Building the 16-node cluster
    every pass makes ``setup_s`` show cluster-construction cost.
    """

    name = "uncached_remote_read"
    #: Fig. 8 placement: the control node's link to the donor carries
    #: no stressor traffic under X-Y routing
    DONOR = 6
    CONTROL = 2
    STRESSORS = (5, 7, 8, 9, 10, 11, 13)

    def __init__(
        self,
        control_reads: int = 320,
        stressor_nodes: int = 7,
        threads_per_stressor: int = 4,
        buffer_bytes: int = mib(4),
    ) -> None:
        self.control_reads = control_reads
        self.stressors = self.STRESSORS[:stressor_nodes]
        self.threads = threads_per_stressor
        self.buffer_bytes = buffer_bytes

    def setup(self, seed: int):
        t0 = time.perf_counter()
        cluster = Cluster(ClusterConfig())
        build_s = time.perf_counter() - t0
        buffers = []
        for node in (self.CONTROL, *self.stressors):
            sess = cluster.session(node)
            sess.borrow_remote(self.DONOR, self.buffer_bytes + mib(1))
            ptr = sess.malloc(self.buffer_bytes, Placement.REMOTE)
            pattern = rng_for(seed, 1, node).integers(
                0, 256, self.buffer_bytes, dtype=np.uint8
            )
            sess.bulk_write(ptr, pattern.tobytes())
            buffers.append((sess, ptr, pattern))
        control_offsets = self._offsets(rng_for(seed, 2), self.control_reads)
        return SimpleNamespace(
            cluster=cluster,
            build_s=build_s,
            buffers=buffers,
            seed=seed,
            control_offsets=control_offsets,
            inputs_digest=_digest_of(
                control_offsets, *(p[:PAGE_SIZE] for _, _, p in buffers)
            ),
        )

    def warm(self, inst) -> None:
        # pre-warm the TLBs and page tables by touching every page
        # (zero simulated time: the allocator maps eagerly)
        for sess, ptr, _ in inst.buffers:
            for vaddr in range(ptr, ptr + self.buffer_bytes, PAGE_SIZE):
                sess.aspace.translate(vaddr)

    def counters(self, inst) -> dict:
        return _cluster_counters(inst.cluster, [s for s, _, _ in inst.buffers])

    def measure(self, inst) -> Measured:
        sim = inst.cluster.sim
        out = Measured(latencies_ns=np.empty(0), batch_ops=256)
        lat: list[float] = []
        stop = [False]

        def reader(buf_idx: int, core: int, offsets, bounded: bool):
            sess, ptr, _ = inst.buffers[buf_idx]
            for chunk in offsets:
                for off in chunk:
                    if not bounded and stop[0]:
                        return
                    off = int(off)
                    t0 = sim.now
                    try:
                        data = yield from sess.g_read(
                            ptr + off, CACHE_LINE, core=core, cached=False
                        )
                    except Exception as exc:  # counted against error_rate
                        out.raised += 1
                        out.records.append((buf_idx, off, exc))
                    else:
                        out.records.append((buf_idx, off, data))
                    lat.append(sim.now - t0)
                    out.tick()

        for si, node in enumerate(self.stressors, start=1):
            for tid in range(self.threads):
                chunks = self._endless_offsets(rng_for(inst.seed, 3, node, tid))
                sim.process(reader(si, tid, chunks, False), name=f"stress.n{node}t{tid}")
        control = sim.process(
            reader(0, 0, [inst.control_offsets], True), name="control"
        )
        control.add_callback(lambda _e: stop.__setitem__(0, True))
        sim.run()
        out.latencies_ns = np.asarray(lat, dtype=np.float64)
        return out

    def verify(self, inst, measured: Measured) -> int:
        failed = 0
        for buf_idx, off, data in measured.records:
            pattern = inst.buffers[buf_idx][2]
            if not isinstance(data, bytes) or data != pattern[off : off + CACHE_LINE].tobytes():
                failed += 1
        return failed

    def _offsets(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lines = self.buffer_bytes // CACHE_LINE
        return rng.integers(0, lines, size=count, dtype=np.int64) * CACHE_LINE

    def _endless_offsets(self, rng: np.random.Generator):
        while True:
            yield self._offsets(rng, 256)


class MiniDBRemoteMix:
    """A YCSB-style query mix on a MiniDB in borrowed memory (extD on
    real packets).

    The table and its hash and b-tree indexes live in memory borrowed
    from a 1-hop donor and are reached through a cached
    :class:`SessionAccessor` on one core of an 8-node cluster. Rows are
    YCSB's 1 KiB records, so the working set is several times the
    2 MiB per-core cache. Cached loads, write-allocate and dirty
    write-backs sit beside reads; events per byte are low and nothing
    is NACKed.
    """

    name = "minidb_remote_mix"
    BORROWER = 1
    DONOR = 2
    RANGE_KEYS = 128
    FIELD_BYTES = 100
    #: point selects / range selects / updates in every 20 ops: YCSB-A's
    #: 50/50 read/update with a YCSB-E style scan share carved out
    MIX = (10, 1, 9)

    def __init__(
        self,
        rows: int = 8192,
        row_bytes: int = 1024,
        ops: int = 2400,
        warm_ops: int = 400,
    ) -> None:
        self.rows = rows
        self.row_bytes = row_bytes
        self.ops = ops
        self.warm_ops = warm_ops

    def setup(self, seed: int):
        t0 = time.perf_counter()
        cluster = Cluster(ClusterConfig(network=NetworkConfig(dims=(4, 2))))
        build_s = time.perf_counter() - t0
        sess = cluster.session(self.BORROWER)
        capacity = -(-(2 * self.rows * self.row_bytes + mib(2)) // mib(1)) * mib(1)
        sess.borrow_remote(self.DONOR, capacity + mib(1))
        acc = SessionAccessor(sess, capacity, Placement.REMOTE, cached=True)
        db = MiniDB(acc, num_rows=self.rows, row_bytes=self.row_bytes)
        # the shadow table is the oracle: the primary key in the first
        # 8 bytes (MiniDB's row layout) and a distinct seeded payload per
        # row, laid over the table before anything is measured
        shadow = rng_for(seed, 1).integers(
            0, 256, (self.rows, self.row_bytes), dtype=np.uint8
        )
        shadow[:, :8] = (
            np.arange(1, self.rows + 1, dtype="<u8").view(np.uint8).reshape(-1, 8)
        )
        acc.bulk_write(db.table_base, shadow.tobytes())
        warm = self._ops(rng_for(seed, 2), self.warm_ops)
        ops = self._ops(rng_for(seed, 3), self.ops)
        return SimpleNamespace(
            cluster=cluster,
            build_s=build_s,
            sess=sess,
            acc=acc,
            db=db,
            shadow=shadow,
            warm_stream=warm,
            op_stream=ops,
            inputs_digest=_digest_of(shadow[:, 8:16], ops[0], ops[1], ops[2]),
        )

    def _ops(self, rng: np.random.Generator, count: int):
        kinds = blocked_kinds(rng, self.MIX, count)
        keys = rng.integers(1, self.rows + 1, size=count, dtype=np.int64)
        payloads = rng.integers(0, 256, (count, self.FIELD_BYTES), dtype=np.uint8)
        return kinds, keys, payloads

    def _run(self, inst, stream) -> Measured:
        db, acc = inst.db, inst.acc
        kinds, keys, payloads = stream
        out = Measured(latencies_ns=np.empty(len(kinds)), batch_ops=100)
        for i in range(len(kinds)):
            kind, key = int(kinds[i]), int(keys[i])
            t0 = acc.time_ns
            try:
                if kind == 0:
                    res = db.point_select(key)
                elif kind == 1:
                    res = db.range_select(key, key + self.RANGE_KEYS)
                else:
                    res = db.update(key, payloads[i].tobytes())
            except Exception as exc:  # counted against error_rate
                out.raised += 1
                res = exc
            out.latencies_ns[i] = acc.time_ns - t0
            out.records.append(res)
            out.tick()
        return out

    def warm(self, inst) -> None:
        inst.warm_result = self._run(inst, inst.warm_stream)

    def counters(self, inst) -> dict:
        c = _cluster_counters(inst.cluster, [inst.sess])
        c["apps.db.rows_read"] = inst.db.stats.rows_read
        c["apps.db.rows_written"] = inst.db.stats.rows_written
        c["apps.btree.nodes_visited"] = inst.db.btree.stats.nodes_visited
        return c

    def measure(self, inst) -> Measured:
        return self._run(inst, inst.op_stream)

    def verify(self, inst, measured: Measured) -> int:
        """Replay both op streams on the shadow table, then compare the
        whole table in functional memory against it."""
        shadow = inst.shadow
        keys_col = shadow[:, :8].copy().view("<u8").ravel()
        failed = 0
        warm_failed = 0
        for stream, result, counted in (
            (inst.warm_stream, inst.warm_result, False),
            (inst.op_stream, measured, True),
        ):
            kinds, keys, payloads = stream
            for i, res in enumerate(result.records):
                key = int(keys[i])
                kind = int(kinds[i])
                if kind == 0:
                    ok = res == shadow[key - 1].tobytes()
                elif kind == 1:
                    lo, hi = key, key + self.RANGE_KEYS
                    ok = res == int(np.count_nonzero((keys_col >= lo) & (keys_col < hi)))
                else:
                    ok = res is True
                    shadow[key - 1, 8 : 8 + self.FIELD_BYTES] = payloads[i]
                if not ok:
                    if counted:
                        failed += 1
                    else:
                        warm_failed += 1
        table = _fn_read(inst.acc, inst.db.table_base, self.rows * self.row_bytes)
        rows_bad = np.count_nonzero(
            (np.frombuffer(table, np.uint8).reshape(shadow.shape) != shadow).any(axis=1)
        )
        # a row the program corrupted outside the op results (or a warm-up
        # mismatch) still fails the run
        return failed + int(rows_bad) + warm_failed


def _fn_read(acc: SessionAccessor, addr: int, size: int) -> bytes:
    """Zero-time read of accessor memory, walking the page table
    directly so the TLB and the timed path are left untouched."""
    sess = acc.session
    amap = sess.node.amap
    page = sess.aspace.page_bytes
    out = bytearray()
    vaddr = acc.base + addr
    end = vaddr + size
    while vaddr < end:
        pte = sess.aspace.page_table.lookup(vaddr // page)
        take = min(end, (vaddr // page + 1) * page) - vaddr
        phys = pte.phys_page + vaddr % page
        if not amap.node_of(phys):
            phys = amap.encode(sess.node_id, phys)
        out += sess.cluster.fn_read(phys, take)
        vaddr += take
    return bytes(out)


class BTreeSwapFast:
    """B-tree search with a few inserts on remote memory and on remote
    swap (fast tier, Fig. 9/10 traffic).

    The same op stream runs on a :class:`RemoteMemAccessor` and on a
    :class:`SwapAccessor` over :class:`RemoteSwap`. The tree is several
    times larger than the swap's resident pages and the swap pool is
    warmed before measuring. All work is in ``model``, ``swap``,
    ``mem.cache``/``backing`` and ``apps``; no engine event is
    scheduled, so an engine or packet optimisation should show no
    change here.
    """

    name = "btree_swap_fast"
    FANOUT = 168
    #: searches for a present key / searches for a uniform key / inserts
    #: in every 40 ops
    MIX = (19, 19, 2)

    def __init__(
        self,
        keys: int = 400_000,
        resident_pages: int = 512,
        ops: int = 14000,
        warm_searches: int = 2000,
    ) -> None:
        self.keys = keys
        self.resident_pages = resident_pages
        self.ops = ops
        self.warm_searches = warm_searches

    def setup(self, seed: int):
        rng = rng_for(seed, 1)
        space = self.keys * 8
        keys = rng.choice(np.arange(1, space, dtype=np.int64), self.keys, replace=False)
        keys.sort()
        ops = self._ops(rng_for(seed, 2), keys, space)
        warm = rng_for(seed, 3).integers(1, space, self.warm_searches, dtype=np.int64)
        latency = LatencyModel.from_config(ClusterConfig())
        # one page per node plus headroom for the nodes inserts split off
        arena = (self.keys // (self.FANOUT - 1) * 2 + 4 * self.ops // 10 + 64) * PAGE_SIZE
        remote = RemoteMemAccessor(latency, BackingStore(arena), hops=1)
        swap = RemoteSwap(ClusterConfig().swap, resident_pages=self.resident_pages)
        swapped = SwapAccessor(latency, BackingStore(arena), swap)
        trees = []
        for acc in (remote, swapped):
            tree = BTree(acc, children=self.FANOUT)
            tree.bulk_load(keys.astype(np.uint64))
            trees.append(tree)
        return SimpleNamespace(
            build_s=0.0,
            keys=keys,
            op_stream=ops,
            warm_stream=warm,
            accessors=(remote, swapped),
            swap=swap,
            trees=trees,
            inputs_digest=_digest_of(keys, ops[0], ops[1]),
        )

    def _ops(self, rng: np.random.Generator, keys: np.ndarray, space: int):
        """Op kinds (0 search, 1 insert) and keys. Half the searches
        look up a present key; inserts take fresh keys, never repeated."""
        mix = blocked_kinds(rng, self.MIX, self.ops)
        kinds = (mix == 2).astype(np.int8)
        present = rng.choice(keys, self.ops)
        uniform = rng.integers(1, space, self.ops, dtype=np.int64)
        qkeys = np.where(mix == 0, present, uniform)
        n_ins = int(kinds.sum())
        fresh = np.setdiff1d(
            rng.integers(1, space, 4 * n_ins + 16, dtype=np.int64), keys
        )
        fresh = rng.permutation(fresh)[:n_ins]
        if fresh.size < n_ins:  # pragma: no cover - 4x oversampling
            raise RuntimeError("not enough fresh insert keys")
        qkeys[kinds == 1] = fresh
        return kinds, qkeys

    def warm(self, inst) -> None:
        # settle the swap's LRU pool and both line caches
        for tree in inst.trees:
            for q in inst.warm_stream:
                tree.search(int(q))

    def counters(self, inst) -> dict:
        c = _zero_counters()
        remote, swapped = inst.accessors
        for acc in inst.accessors:
            c["mem.cache.hits"] += acc.cache.stats.hits
            c["mem.cache.misses"] += acc.cache.stats.misses
            c["mem.cache.writebacks"] += acc.cache.stats.writebacks
            c["model.accessor_calls"] += acc.accesses
        c["model.remote.time_ns"] = remote.time_ns
        c["swap.time_ns"] = swapped.time_ns
        c["swap.faults"] = inst.swap.stats.faults
        c["swap.accesses"] = inst.swap.stats.accesses
        c["swap.dirty_writebacks"] = inst.swap.stats.dirty_writebacks
        c["apps.btree.nodes_visited"] = sum(
            t.stats.nodes_visited for t in inst.trees
        )
        c["link_busy_ns"] = {}
        return c

    def measure(self, inst) -> Measured:
        kinds, qkeys = inst.op_stream
        remote, swapped = inst.accessors
        out = Measured(latencies_ns=np.empty(len(kinds)), batch_ops=500)
        for i in range(len(kinds)):
            key = int(qkeys[i])
            t0 = remote.time_ns + swapped.time_ns
            res = []
            for tree in inst.trees:
                try:
                    if kinds[i]:
                        tree.insert(key)
                        res.append(None)
                    else:
                        res.append(tree.search(key))
                except Exception as exc:  # counted against error_rate
                    res.append(exc)
            if any(isinstance(r, Exception) for r in res):
                out.raised += 1
            # the op's simulated cost on both memory systems
            out.latencies_ns[i] = remote.time_ns + swapped.time_ns - t0
            out.records.append(tuple(res))
            out.tick()
        return out

    def verify(self, inst, measured: Measured) -> int:
        kinds, qkeys = inst.op_stream
        searches = kinds == 0
        inserted_at = {int(k): i for i, k in enumerate(qkeys) if kinds[i]}
        # hit iff the key was bulk-loaded or inserted by an earlier op
        expected = np.isin(qkeys, inst.keys)
        for i in np.flatnonzero(searches & ~expected):
            expected[i] = inserted_at.get(int(qkeys[i]), len(qkeys)) < i
        failed = 0
        for i, res in enumerate(measured.records):
            want = None if kinds[i] else bool(expected[i])
            # both accessors must agree with the oracle (and so with
            # each other)
            if any(r is not want for r in res):
                failed += 1
        # every key the stream inserted is now in both trees
        for key in qkeys[kinds == 1]:
            if not all(tree.contains_all([key]) for tree in inst.trees):
                failed += 1
        return failed


WORKLOADS = {
    w.name: w for w in (UncachedRemoteRead, MiniDBRemoteMix, BTreeSwapFast)
}
