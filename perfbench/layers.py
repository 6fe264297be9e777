"""Metric definitions and the per-layer view of one measured pass.

Layers are the program's packages: ``sim`` (event engine), ``mem``
(caches, TLB, memory controller, DRAM), ``ht`` (HT links and
packets), ``noc`` (switches and routing), ``rmc``, ``cluster`` (nodes,
cores, sessions, OS-lite), ``apps``, ``model`` (fast-tier accessors)
and ``swap``. Every count is a delta of the program's public counters
over the measured phase, so it is deterministic for a fixed seed; the
``*.self_s`` times come from the traced run's profile fold
(:func:`tracing.fold_profile`).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import COUNTER_KEYS

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "LAYERS",
    "HOST_METRICS",
    "derive",
    "mid_quantile",
    "sim_metrics",
    "digest",
]

#: (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_ns_per_op", "ns", "lower"),
    ("sim_op_ns_p50", "ns", "lower"),
    ("sim_op_ns_p99", "ns", "lower"),
)

#: packages a profile's self time is folded into; anything else
#: (numpy, the stdlib, the benchmark itself, repro's top-level
#: modules) is ``other``
LAYERS = ("sim", "mem", "ht", "noc", "rmc", "cluster", "apps", "model", "swap")

#: (name, unit, better) of every per-layer metric
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_op", "events/op", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("mem.cache.hits", "count", "higher"),
    ("mem.cache.misses", "count", "lower"),
    ("mem.cache.hit_ratio", "ratio", "higher"),
    ("mem.cache.writebacks", "count", "lower"),
    ("mem.tlb.hit_ratio", "ratio", "higher"),
    ("mem.controller.reads", "count", "lower"),
    ("mem.controller.writes", "count", "lower"),
    ("mem.dram.row_hit_ratio", "ratio", "higher"),
    ("ht.link.packets", "count", "lower"),
    ("ht.link.bytes", "B", "lower"),
    ("ht.packets_per_op", "packets/op", "lower"),
    ("noc.max_link_util", "ratio", "lower"),
    ("rmc.client_requests", "count", "lower"),
    ("rmc.server_requests", "count", "lower"),
    ("rmc.server_nacks", "count", "lower"),
    ("rmc.nack_ratio", "ratio", "lower"),
    ("rmc.retransmissions", "count", "lower"),
    ("rmc.prefetch_useful_ratio", "ratio", "higher"),
    ("cluster.build_s", "s", "lower"),
    ("cluster.core.nack_retries", "count", "lower"),
    ("apps.db.rows_read", "count", "lower"),
    ("apps.db.rows_written", "count", "lower"),
    ("apps.btree.nodes_visited", "count", "lower"),
    ("model.accessor_calls", "count", "lower"),
    ("model.remote.sim_ns_per_op", "ns", "lower"),
    ("swap.faults", "count", "lower"),
    ("swap.fault_ratio", "ratio", "lower"),
    ("swap.dirty_writebacks", "count", "lower"),
    ("swap.sim_ns_per_op", "ns", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in (*LAYERS, "other")),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: metrics measured in host time: noisy, and left out of the digest
HOST_METRICS = frozenset(
    {"setup_s", "ops_per_s", "peak_rss_mb", "sim.host_ns_per_event",
     "cluster.build_s", "trace.overhead_ratio"}
    | {f"{layer}.self_s" for layer in (*LAYERS, "other")}
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(before: dict, after: dict, ops: int, measure_s: float) -> dict:
    """Per-layer metrics (all but ``self_s``, ``cluster.build_s`` and
    the trace overhead) from two counter snapshots around a phase."""
    d = {k: after[k] - before[k] for k in COUNTER_KEYS}
    span_ns = d["sim.now"]
    busy0 = before["link_busy_ns"]
    util = max(
        ((busy - busy0[edge]) / span_ns for edge, busy in after["link_busy_ns"].items()),
        default=0.0,
    ) if span_ns > 0 else 0.0
    events = d["sim.events"]
    return {
        "sim.events": events,
        "sim.events_per_op": events / ops,
        "sim.host_ns_per_event": _ratio(measure_s * 1e9, events),
        "mem.cache.hits": d["mem.cache.hits"],
        "mem.cache.misses": d["mem.cache.misses"],
        "mem.cache.hit_ratio": _ratio(
            d["mem.cache.hits"], d["mem.cache.hits"] + d["mem.cache.misses"]
        ),
        "mem.cache.writebacks": d["mem.cache.writebacks"],
        "mem.tlb.hit_ratio": _ratio(
            d["mem.tlb.hits"], d["mem.tlb.hits"] + d["mem.tlb.misses"]
        ),
        "mem.controller.reads": d["mem.controller.reads"],
        "mem.controller.writes": d["mem.controller.writes"],
        "mem.dram.row_hit_ratio": _ratio(
            d["mem.dram.row_hits"], d["mem.dram.row_hits"] + d["mem.dram.row_misses"]
        ),
        "ht.link.packets": d["ht.link.packets"],
        "ht.link.bytes": d["ht.link.bytes"],
        "ht.packets_per_op": d["ht.link.packets"] / ops,
        "noc.max_link_util": util,
        "rmc.client_requests": d["rmc.client_requests"],
        "rmc.server_requests": d["rmc.server_requests"],
        "rmc.server_nacks": d["rmc.server_nacks"],
        "rmc.nack_ratio": _ratio(d["rmc.server_nacks"], d["rmc.server_requests"]),
        "rmc.retransmissions": d["rmc.retransmissions"],
        "rmc.prefetch_useful_ratio": _ratio(
            d["rmc.prefetch_hits"], d["rmc.prefetch_issued"]
        ),
        "cluster.core.nack_retries": d["cluster.core.nack_retries"],
        "apps.db.rows_read": d["apps.db.rows_read"],
        "apps.db.rows_written": d["apps.db.rows_written"],
        "apps.btree.nodes_visited": d["apps.btree.nodes_visited"],
        "model.accessor_calls": d["model.accessor_calls"],
        "model.remote.sim_ns_per_op": d["model.remote.time_ns"] / ops,
        "swap.faults": d["swap.faults"],
        "swap.fault_ratio": _ratio(d["swap.faults"], d["swap.accesses"]),
        "swap.dirty_writebacks": d["swap.dirty_writebacks"],
        "swap.sim_ns_per_op": d["swap.time_ns"] / ops,
    }


def mid_quantile(samples: np.ndarray, q: float) -> float:
    """The mid-distribution quantile (Parzen) of *samples* at *q* in [0, 1].

    Simulated latencies take a few hundred distinct values, and one
    value can hold a tenth of all ops, so a plain order statistic sits
    on that value until the distribution moves past it. This estimator
    interpolates between the mid-points of the empirical CDF's steps,
    so it moves when the mass around the quantile moves; for distinct
    samples it is the usual interpolated percentile (Hazen's rule)."""
    values, counts = np.unique(samples, return_counts=True)
    mids = (np.cumsum(counts) - counts / 2) / samples.size
    return float(np.interp(q, mids, values))


def sim_metrics(latencies_ns: np.ndarray) -> dict:
    """Simulated per-op latency: mean, median and 99th percentile."""
    return {
        "sim_ns_per_op": float(latencies_ns.mean()),
        "sim_op_ns_p50": mid_quantile(latencies_ns, 0.50),
        "sim_op_ns_p99": mid_quantile(latencies_ns, 0.99),
    }


def digest(metrics: dict) -> str:
    """Hash of every deterministic metric (``sim_*`` and every count):
    equal across runs of one seed, and across a speed-only change."""
    det = {k: v for k, v in sorted(metrics.items()) if k not in HOST_METRICS}
    return hashlib.sha256(json.dumps(det, sort_keys=True).encode()).hexdigest()[:16]
