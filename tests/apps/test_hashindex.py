"""Tests for the hash index (footnote 3 of Section V-B)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.access import SessionAccessor
from repro.apps.hashindex import HashIndex
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.mem.backing import BackingStore
from repro.model.fastsim import LocalMemAccessor, RemoteMemAccessor
from repro.model.latency import LatencyModel
from repro.units import mib


@pytest.fixture
def lat():
    return LatencyModel.from_config(ClusterConfig())


def make_index(lat, capacity=1000, **kw):
    acc = LocalMemAccessor(lat, BackingStore(1 << 24))
    return HashIndex(acc, capacity=capacity, **kw)


def test_insert_and_lookup(lat):
    idx = make_index(lat)
    idx.insert(42, 4200)
    idx.insert(43, 4300)
    assert idx.lookup(42) == 4200
    assert idx.lookup(43) == 4300
    assert idx.lookup(44) is None
    assert idx.num_keys == 2


def test_collisions_resolved_by_linear_probing(lat):
    idx = make_index(lat, capacity=100)
    # force many keys into a small table; all must remain findable
    keys = list(range(1, 101))
    for k in keys:
        idx.insert(k, k * 10)
    for k in keys:
        assert idx.lookup(k) == k * 10


def test_duplicate_insert_rejected(lat):
    idx = make_index(lat)
    idx.insert(5, 50)
    with pytest.raises(ConfigError):
        idx.insert(5, 51)


def test_zero_key_rejected(lat):
    idx = make_index(lat)
    with pytest.raises(ConfigError):
        idx.insert(0, 1)
    with pytest.raises(ConfigError):
        idx.lookup(0)


def test_capacity_enforced(lat):
    idx = make_index(lat, capacity=2)
    idx.insert(1, 1)
    idx.insert(2, 2)
    with pytest.raises(ConfigError):
        idx.insert(3, 3)


def test_bulk_insert_matches_timed_insert(lat):
    keys = np.arange(1, 500, dtype=np.uint64)
    values = keys * 7
    idx = make_index(lat, capacity=600)
    idx.bulk_insert(keys, values)
    assert idx.num_keys == 499
    for k in (1, 250, 499):
        assert idx.lookup(k) == k * 7


def test_bulk_insert_is_untimed(lat):
    idx = make_index(lat, capacity=600)
    t0 = idx.accessor.time_ns
    idx.bulk_insert(np.arange(1, 100, dtype=np.uint64),
                    np.arange(1, 100, dtype=np.uint64))
    assert idx.accessor.time_ns == t0


def test_bulk_insert_is_untimed_on_packet_tier(small_cluster):
    """A packet-tier accessor has no backing store to probe, so the
    population probes must go through its untimed functional read:
    no simulated time, no events and no cache traffic."""
    sess = small_cluster.session(1)
    sess.borrow_remote(2, mib(2))
    acc = SessionAccessor(sess, mib(1), Placement.REMOTE, cached=True)
    idx = HashIndex(acc, capacity=600)
    sim = small_cluster.sim
    caches = [c for n in small_cluster.nodes.values() for c in n.caches]

    def snapshot():
        return (sim.now, sim.events_scheduled,
                [(c.stats.hits, c.stats.misses) for c in caches])

    before = snapshot()
    keys = np.arange(1, 300, dtype=np.uint64)
    # a second batch probes over the first batch's occupied slots
    idx.bulk_insert(keys[::2], keys[::2] * 3)
    idx.bulk_insert(keys[1::2], keys[1::2] * 3)
    assert snapshot() == before
    assert idx.num_keys == 299
    for k in (1, 150, 299):
        assert idx.lookup(k) == k * 3


def test_mean_probes_near_one_at_low_load(lat):
    idx = make_index(lat, capacity=1000, load_factor=0.25)
    keys = np.arange(1, 1001, dtype=np.uint64)
    idx.bulk_insert(keys, keys)
    for k in range(1, 501):
        idx.lookup(k)
    assert idx.mean_probes < 2.0


def test_constant_probes_regardless_of_size(lat):
    """The footnote's point: lookups touch O(1) memory, unlike a tree."""
    small = make_index(lat, capacity=1_000)
    large = make_index(lat, capacity=100_000)
    for idx, n in ((small, 1_000), (large, 100_000)):
        keys = np.arange(1, n + 1, dtype=np.uint64)
        idx.bulk_insert(keys, keys)
        for k in range(1, 300):
            idx.lookup(k)
    assert large.mean_probes < small.mean_probes * 1.5


def test_validation(lat):
    acc = LocalMemAccessor(lat, BackingStore(1 << 20))
    with pytest.raises(ConfigError):
        HashIndex(acc, capacity=0)
    with pytest.raises(ConfigError):
        HashIndex(acc, capacity=10, load_factor=0.95)


def test_hash_beats_btree_on_remote_memory(lat):
    """Footnote 3, measured: on remote memory a hash index out-performs
    the b-tree the paper deliberately handicapped itself with."""
    from repro.apps.btree import BTree

    n = 30_000
    keys = np.arange(1, n + 1, dtype=np.uint64)
    rng = np.random.default_rng(5)
    queries = rng.integers(1, n + 1, size=1_000, dtype=np.uint64)

    hacc = RemoteMemAccessor(lat, BackingStore(1 << 26), use_cache=False)
    hidx = HashIndex(hacc, capacity=n)
    hidx.bulk_insert(keys, keys)
    for q in queries:
        hidx.lookup(int(q))

    bacc = RemoteMemAccessor(lat, BackingStore(1 << 26), use_cache=False)
    tree = BTree(bacc, children=168)
    tree.bulk_load(keys)
    for q in queries:
        tree.search(int(q))

    assert hacc.time_ns / bacc.time_ns < 0.5


@settings(max_examples=20, deadline=None)
@given(kv=st.dictionaries(st.integers(1, 10**9), st.integers(0, 10**9),
                          min_size=1, max_size=150))
def test_dict_semantics(kv):
    """Property: behaves exactly like a Python dict."""
    lat = LatencyModel.from_config(ClusterConfig())
    idx = make_index(lat, capacity=max(200, len(kv)))
    for k, v in kv.items():
        idx.insert(k, v)
    for k, v in kv.items():
        assert idx.lookup(k) == v
    for probe in range(1, 50):
        if probe not in kv:
            assert idx.lookup(probe) is None
