"""Phase spans and the profile fold of the traced run.

Spans are recorded by the benchmark around each pass and each of its
phases (set-up, warm-up, measure, verify), kept in memory and written
once at the end as Chrome trace-event JSON (open it in
``chrome://tracing`` or Perfetto). Every
span of one run carries the same ``run_id``; ``parent`` names the span
that contains it.

:func:`fold_profile` turns a ``cProfile`` self-time profile into one
number per layer.
"""

from __future__ import annotations

import json
import os
import pstats
import re
import time
from contextlib import contextmanager

from layers import LAYERS

__all__ = ["Spans", "fold_profile", "layer_of"]

#: ``.../repro/<package>/<module>.py``, anchored at the file so a
#: checkout directory that happens to be called ``repro`` cannot match
_REPRO_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]\w+\.py$")


class Spans:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.events: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._t0 = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, **args):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - self._t0) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": os.getpid(),
                    "tid": 0,
                    "args": {
                        "run_id": self.run_id,
                        "span_id": span_id,
                        "parent": parent,
                        **args,
                    },
                }
            )

    def write(self, path: str, **meta) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": sorted(self.events, key=lambda e: e["ts"]),
                    "displayTimeUnit": "ms",
                    "otherData": {"run_id": self.run_id, **meta},
                },
                fh,
            )


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``repro.<package>``)."""
    m = _REPRO_PACKAGE.search(filename)
    return m.group(1) if m and m.group(1) in LAYERS else "other"


def fold_profile(stats: pstats.Stats) -> dict:
    """Self time per layer, in seconds.

    Python functions count toward the layer of their source file. A C
    builtin (``list.append``, ``heapq.heappush``, a generator's
    ``send``) has no source file, so its self time is split among its
    callers as the profile recorded it and counts toward each caller's
    layer: the engine's heap pushes are engine time.
    """
    out = dict.fromkeys((*LAYERS, "other"), 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        if filename != "~" or not callers:
            out[layer_of(filename)] += tt
            continue
        for (caller_file, _l, _n), caller_stats in callers.items():
            out[layer_of(caller_file)] += caller_stats[2]
    return out
