"""Per-element specifications of the columnar operators.

One accessor call per element: they define what
:meth:`~repro.apps.columnar.ColumnScan.min_max` and
:meth:`~repro.apps.columnar.ColumnScan.count_where` must compute. The
sum and select specs stay in :mod:`repro.apps.columnar` because the
harness and the perf guard measure against them.
"""

from __future__ import annotations

from repro.apps.columnar import Column, _iter_elements

__all__ = ["scan_min_max_ref", "count_where_ref"]


def scan_min_max_ref(accessor, col: Column):
    lo = hi = None
    for v in _iter_elements(accessor, col):
        if lo is None or v < lo:
            lo = v
        if hi is None or v > hi:
            hi = v
    return lo, hi


def count_where_ref(accessor, col: Column, lo, hi) -> int:
    return sum(1 for v in _iter_elements(accessor, col) if lo <= v < hi)
