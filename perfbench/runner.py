"""Run one workload for a time budget and report every metric.

A run is a sequence of *passes*. Each pass builds a fresh instance of
the workload from the seed (set-up and warm-up, timed together as
``setup_s``), runs the fixed-size measured op stream, and checks every
op against the workload's oracle. Passes repeat until the measured
phases add up to the time budget, and at least :data:`MIN_PASSES`
times. Because every pass starts from the same seed, every pass must
produce the same simulated results: the digest of the ``sim_*``
metrics and per-layer counts is compared across passes.

The two end-to-end host-time metrics are scaled to a nominal-speed
host (:mod:`hostspeed`): ``setup_s`` is the median over passes of the
set-up time divided by the host slowdown measured around it;
``ops_per_s`` is the median over every fixed-size batch of ops of every
pass of the batch's rate times the slowdown measured after it. The
report prints the raw host figures beside them. Per-layer host times
are raw.

The traced run (``trace=True``) makes one untraced pass for the
counts and the overhead base, then one pass with ``cProfile`` enabled
around the measured phase, folds its self time by layer and writes the
phase spans as Chrome trace-event JSON.

The simulator has no real-hardware reference results, so the
benchmark reports the model's outputs and host costs only, never an
error against hardware.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import resource
import statistics
import time
import uuid
from dataclasses import dataclass

from hostspeed import slowdown
from layers import END_TO_END, PER_LAYER, derive, digest, sim_metrics
from tracing import Spans, fold_profile

__all__ = ["MIN_PASSES", "PassResult", "run_pass", "run_workload"]

MIN_PASSES = 5
#: no pass starts once this much wall time has gone, so a run ends well
#: inside the three-minute limit even on a slow host
WALL_BUDGET_S = 140.0
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class PassResult:
    setup_s: float
    #: host slowdown around the set-up (mean of before and after)
    setup_slowdown: float
    build_s: float
    #: measured phase, less the calibration samples taken inside it
    measure_s: float
    ops: int
    raised: int
    failed: int
    batch_rates: list
    batch_slowdowns: list
    #: every deterministic metric: ``sim_*`` and the per-layer counts
    metrics: dict
    digest: str
    inputs_digest: str

    @property
    def raw_ops_per_s(self) -> float:
        return _median_rate([self], scaled=False)


def run_pass(workload, seed: int, spans: Spans, index: int, profiler=None) -> PassResult:
    """Build, warm, measure and verify one fresh workload instance."""
    gc.collect()
    with spans.span("pass", index=index, traced=profiler is not None):
        before_setup = slowdown(3)
        t0 = time.perf_counter()
        with spans.span("setup"):
            inst = workload.setup(seed)
        with spans.span("warmup"):
            workload.warm(inst)
        setup_s = time.perf_counter() - t0
        after_setup = slowdown(3)
        before = workload.counters(inst)
        with spans.span("measure"):
            if profiler is not None:
                profiler.enable()
            t1 = time.perf_counter()
            measured = workload.measure(inst)
            measure_s = time.perf_counter() - t1
            if profiler is not None:
                profiler.disable()
        after = workload.counters(inst)
        with spans.span("verify"):
            failed = workload.verify(inst, measured)
    measure_s -= measured.calibration_s
    metrics = sim_metrics(measured.latencies_ns)
    metrics.update(derive(before, after, measured.ops, measure_s))
    return PassResult(
        setup_s=setup_s,
        setup_slowdown=(before_setup + after_setup) / 2,
        build_s=inst.build_s,
        measure_s=measure_s,
        ops=measured.ops,
        raised=measured.raised,
        failed=failed,
        batch_rates=measured.batch_rates,
        batch_slowdowns=measured.batch_slowdowns,
        metrics=metrics,
        digest=digest(metrics),
        inputs_digest=inst.inputs_digest,
    )


def _median_rate(passes, scaled: bool) -> float:
    """Median ops/s over every batch of *passes*, scaled to the nominal
    host or raw (whole passes when a stream was too short to fill one
    batch)."""
    rates = [
        r * (f if scaled else 1.0)
        for p in passes
        for r, f in zip(p.batch_rates, p.batch_slowdowns)
    ]
    if not rates:
        rates = [
            p.ops / p.measure_s * (p.setup_slowdown if scaled else 1.0)
            for p in passes
        ]
    return statistics.median(rates)


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 min_passes: int = MIN_PASSES, out_dir: str = OUT_DIR) -> dict:
    """Run *workload*; return the result object plus the report lines
    (``lines``) and the digests."""
    start = time.perf_counter()
    spans = Spans(uuid.uuid4().hex)
    passes: list[PassResult] = []
    profile = None
    if trace:
        passes.append(run_pass(workload, seed, spans, 0))
        profiler = cProfile.Profile()
        passes.append(run_pass(workload, seed, spans, 1, profiler))
        profile = fold_profile(pstats.Stats(profiler))
    else:
        measured = 0.0
        while len(passes) < min_passes or measured < seconds:
            elapsed = time.perf_counter() - start
            if passes and elapsed + elapsed / len(passes) > WALL_BUDGET_S:
                break
            p = run_pass(workload, seed, spans, len(passes))
            passes.append(p)
            measured += p.measure_s

    first = passes[0]
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    repeatable = all(
        p.digest == first.digest and p.inputs_digest == first.inputs_digest
        for p in passes
    )
    lines = [
        f"workload {workload.name}  seed {seed}  run_id {spans.run_id}",
        "model: unvalidated simulator (no real-hardware reference in the "
        "repo); no error against hardware is reported",
    ]
    for i, p in enumerate(passes):
        lines.append(
            f"  pass {i}{' (profiled)' if trace and i == 1 else ''}: "
            f"setup {p.setup_s:.3f} s (cluster build {p.build_s:.3f} s, "
            f"host slowdown {p.setup_slowdown:.3f})  measure {p.measure_s:.3f} s  "
            f"{p.ops} ops  raw {p.raw_ops_per_s:.1f} ops/s  "
            f"raised {p.raised}  failed {p.failed}"
        )

    if trace:
        base, traced = passes
        layer = dict(base.metrics)
        layer["cluster.build_s"] = base.build_s
        for name, secs in profile.items():
            layer[f"{name}.self_s"] = secs
        # raw rates: the profiler slows the reference kernel as well
        layer["trace.overhead_ratio"] = base.raw_ops_per_s / traced.raw_ops_per_s
        metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
        path = os.path.join(out_dir, f"{workload.name}-seed{seed}.trace.json")
        spans.write(path, workload=workload.name, seed=seed)
        lines.append(f"phase spans: {os.path.relpath(path)}")
    else:
        e2e = dict(first.metrics)
        e2e["setup_s"] = statistics.median(p.setup_s / p.setup_slowdown for p in passes)
        e2e["ops_per_s"] = _median_rate(passes, scaled=True)
        e2e["peak_rss_mb"] = _peak_rss_mib()
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = {name: (e2e[name], units[name]) for name in units}
        lines.append(
            f"raw host figures: setup {statistics.median(p.setup_s for p in passes):.3f} s, "
            f"{_median_rate(passes, scaled=False):.1f} ops/s "
            f"(scaled to the nominal host in the metrics below)"
        )

    m = first.metrics
    lines += [
        f"simulated op latency over {first.ops} samples per pass: "
        f"mean {m['sim_ns_per_op']:.1f} ns  p50 {m['sim_op_ns_p50']:.1f} ns  "
        f"p99 {m['sim_op_ns_p99']:.1f} ns",
        f"error_rate {failed / attempted:.6f} ({failed} of {attempted} ops)",
        f"inputs digest {first.inputs_digest}  result digest {first.digest}"
        f"  ({'identical' if repeatable else 'DIFFERENT'} across {len(passes)} passes)",
        *_job_lines(workload.name, m),
        "metrics:",
        *(f"  {name} = {v!r} {u}" for name, (v, u) in metrics.items()),
    ]
    if not trace:
        lines.append("per-layer counts (measured phase):")
        lines += [
            f"  {name} = {m[name]!r} {unit}" for name, unit, _ in PER_LAYER if name in m
        ]
    return {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "digest": first.digest,
        "inputs_digest": first.inputs_digest,
        "lines": lines,
    }


def _job_lines(name: str, m: dict) -> list[str]:
    """The measured share that shows a workload exercises what it was
    chosen for (reported, not gated: a change may legitimately move
    it)."""
    if name == "uncached_remote_read":
        return [
            f"job: donor NACKs {m['rmc.server_nacks']} of "
            f"{m['rmc.server_requests']} server requests "
            f"(nack_ratio {m['rmc.nack_ratio']:.4f}); cache accesses "
            f"{m['mem.cache.hits'] + m['mem.cache.misses']}"
        ]
    if name == "minidb_remote_mix":
        return [
            f"job: dirty write-backs {m['mem.cache.writebacks']}, cache hit "
            f"ratio {m['mem.cache.hit_ratio']:.4f}, server NACKs "
            f"{m['rmc.server_nacks']}"
        ]
    return [
        f"job: sim.events {m['sim.events']}, ht.link.packets "
        f"{m['ht.link.packets']}, rmc requests "
        f"{m['rmc.client_requests'] + m['rmc.server_requests']}; swap fault "
        f"ratio {m['swap.fault_ratio']:.4f}"
    ]
