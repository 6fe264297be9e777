"""Opt-in runtime sanitizers for the timing model.

Enabled by constructing :class:`~repro.sim.engine.Simulator` with
``debug=True`` (or setting ``REPRO_SANITIZE=1`` in the environment,
which flips the default). Everything here is **off by default** so the
benchmark baselines in ``BENCH`` are unaffected; the hooks in the
timed components all guard on ``sim.audit is not None`` and compile to
a single attribute check when disabled.

Two families of checks live here:

* :func:`check_schedule_delay` / :func:`check_clock_monotonic` — the
  engine-side asserts: every scheduled delay must be finite,
  non-negative and NaN-free, and the popped event clock must never run
  backwards.
* :class:`PacketAudit` — byte-conservation accounting for the packet
  tier. Every timed component (link, crossbar, switch, RMC pipes,
  memory controller) reports each packet it charges; the audit asserts
  that all observations of one transaction (keyed by ``(tag, ptype)``)
  agree on ``line_count`` and ``wire_bytes``. A burst that loses or
  grows lines somewhere between the crossbar and the memory controller
  is exactly the batching bug class the equivalence suite exists for,
  and this catches it at the first disagreeing component instead of in
  an end-to-end timing diff.

All failures raise :class:`~repro.errors.SanitizeError` immediately
(fail fast: the state that explains the bug is still on the stack).
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.errors import SanitizeError

__all__ = [
    "PacketAudit",
    "check_schedule_delay",
    "check_clock_monotonic",
    "check_ready_entry",
]


def check_schedule_delay(now: float, delay: float) -> None:
    """Assert *delay* is a sane scheduling offset from *now*.

    The engine already rejects negative delays; under sanitizers we
    additionally reject NaN (which silently corrupts heap ordering —
    every comparison is False, so the heap invariant quietly dies) and
    infinity (the event would be unreachable, i.e. a guaranteed
    deadlock that presents as "heap drained while waiting").
    """
    if math.isnan(delay):
        raise SanitizeError(f"scheduled a NaN delay at t={now}")
    if math.isinf(delay):
        raise SanitizeError(f"scheduled an infinite delay at t={now}")
    if math.isnan(now) or math.isinf(now):
        raise SanitizeError(f"simulation clock is non-finite: now={now}")


def check_clock_monotonic(now: float, when: float) -> None:
    """Assert the clock never jumps backwards when popping an event."""
    if math.isnan(when):
        raise SanitizeError("popped an event scheduled at NaN time")
    if when < now:
        raise SanitizeError(
            f"clock would run backwards: popping event at t={when} "
            f"while now={now}"
        )


def check_ready_entry(now: float, when: float) -> None:
    """Assert a ready-lane entry is due at the current instant.

    The engine's invariant is that the ready lane only ever holds
    entries scheduled for exactly the current clock value; a violation
    means a push leaked a future (or past) time into the lane, which
    would silently reorder events relative to a plain heap.
    """
    if when != now:
        raise SanitizeError(
            f"ready-lane invariant violated: entry due at t={when} "
            f"in the current-instant bucket while now={now}"
        )


#: Cap on distinct in-flight transactions the audit remembers. Tags
#: are monotonically allocated, so a completed transaction's entry is
#: dead weight; the ledger evicts oldest-inserted entries beyond this
#: bound to keep long runs O(1) in memory.
_LEDGER_CAP = 4096


class PacketAudit:
    """Byte-conservation ledger for the packet tier.

    Components call :meth:`record` with their component kind and the
    packet they just charged. The first observation of a ``(tag,
    ptype)`` pair fixes that transaction's shape — ``(line_count,
    wire_bytes)`` — and every later observation must match it, so the
    bytes a link serialized always equal the bytes the crossbar and
    the memory controller accounted for the same burst.

    ``ptype`` participates in the key because one tag legitimately
    names two wire shapes: the request and its response (a read
    response carries data the request did not).
    """

    __slots__ = ("_shapes", "observations", "mismatches")

    def __init__(self) -> None:
        #: (tag, ptype value) -> (line_count, wire_bytes, first kind)
        self._shapes: dict[Tuple[int, str], Tuple[int, int, str]] = {}
        self.observations = 0
        self.mismatches = 0

    def record(self, kind: str, packet: "object") -> None:
        """Check *packet* as observed by component *kind*.

        *packet* is duck-typed (anything with ``tag``, ``ptype``,
        ``line_count``, ``wire_bytes``, ``size``) so the audit never
        imports the packet layer — the engine must stay importable
        without the HT tier.
        """
        self.observations += 1
        tag = packet.tag  # type: ignore[attr-defined]
        ptype = getattr(packet.ptype, "value", str(packet.ptype))  # type: ignore[attr-defined]
        line_count = packet.line_count  # type: ignore[attr-defined]
        wire_bytes = packet.wire_bytes  # type: ignore[attr-defined]
        size = packet.size  # type: ignore[attr-defined]

        if line_count < 1:
            self.mismatches += 1
            raise SanitizeError(
                f"{kind}: packet tag={tag} {ptype} has line_count={line_count}"
            )
        # A packet that carries data (READ_RESP/WRITE_REQ) must account
        # for it on the wire; requests/acks ship headers only, so their
        # wire footprint is legitimately below ``size``.
        carries_data = getattr(packet, "payload", None) is not None
        if size < 0 or (carries_data and wire_bytes < size):
            self.mismatches += 1
            raise SanitizeError(
                f"{kind}: packet tag={tag} {ptype} claims wire_bytes="
                f"{wire_bytes} < data size={size}"
            )

        key = (tag, ptype)
        seen = self._shapes.get(key)
        if seen is None:
            if len(self._shapes) >= _LEDGER_CAP:
                # dict preserves insertion order: drop the oldest entry
                self._shapes.pop(next(iter(self._shapes)))
            self._shapes[key] = (line_count, wire_bytes, kind)
            return
        seen_lines, seen_bytes, first_kind = seen
        if line_count != seen_lines or wire_bytes != seen_bytes:
            self.mismatches += 1
            raise SanitizeError(
                f"byte conservation violated for tag={tag} {ptype}: "
                f"{first_kind} saw line_count={seen_lines} "
                f"wire_bytes={seen_bytes}, but {kind} saw "
                f"line_count={line_count} wire_bytes={wire_bytes}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PacketAudit tracked={len(self._shapes)} "
            f"observations={self.observations}>"
        )
