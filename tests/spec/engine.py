"""Plain binary-heap twin of the simulation engine's event list.

:class:`HeapSimulator` is the classic event list every exemplar engine
uses: one ``heappush`` per schedule (an event or a
:meth:`~repro.sim.engine.Simulator.call_later` call), one ``heappop``
per fire, ties broken by the monotone sequence number. The production
:class:`~repro.sim.engine.Simulator` adds a ready lane for events due
at the current instant and drains same-timestamp heap ties into it; it
must fire events in exactly this twin's ``(time, seq)`` order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.sanitize import check_clock_monotonic, check_schedule_delay

__all__ = ["HeapSimulator", "install_heap_engine", "lanes"]


class HeapSimulator(Simulator):
    """A :class:`Simulator` whose every entry goes through the one heap.

    Only the methods that place or pop entries are overridden; the
    ready lane is never written, so it stays empty.
    """

    __slots__ = ()

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Timeout.__init__ inlines the ready-lane push, so build the
        # timeout without it and place it through _schedule
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        timeout = Timeout.__new__(Timeout)
        Event.__init__(timeout, self)
        timeout._value = value
        timeout.delay = delay
        self._schedule(timeout, delay)
        return timeout

    def call_later(
        self, delay: float, fn: Callable[[Any], Any], arg: Any = None
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative call_later delay {delay!r}")
        if self.debug:
            check_schedule_delay(self._now, delay)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, seq, fn, arg))

    def _schedule(self, event: Event, delay: float) -> None:
        if self.debug:
            check_schedule_delay(self._now, delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, seq, None, event))

    def step(self) -> None:
        heap = self._heap
        if not heap:
            raise SimulationError(
                "no events scheduled: step() on an empty event heap"
            )
        when, _, fn, arg = heappop(heap)
        if self.debug:
            check_clock_monotonic(self._now, when)
        self._now = when
        if fn is None:
            arg._fire()
        else:
            fn(arg)

    def run(self, until: Optional[float] = None) -> float:
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        if until is not None and until < self._now:
            raise SimulationError(
                f"until={until} lies in the past (now={self._now})"
            )
        self._running = True
        try:
            heap = self._heap
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                self.step()
            if until is not None:
                self._now = until
        finally:
            self._running = False
        return self._now


def install_heap_engine(cluster):
    """Rebind a built *cluster*'s simulator to :class:`HeapSimulator`.

    Building a cluster already queues process kick-offs and scheduled
    calls in the ready lane; they move into the heap, which keeps their ``(time, seq)``
    order because they are due at the current instant and every heap
    entry is due later.
    """
    sim = cluster.sim
    sim.__class__ = HeapSimulator
    ready = sim._ready
    while ready:
        heappush(sim._heap, ready.popleft())
    return cluster


def lanes(sim: Simulator) -> tuple[int, int]:
    """``(ready-lane entries, heap entries)`` queued on *sim* right now."""
    return len(sim._ready), len(sim._heap)
