"""Shared resources for simulation processes.

Two primitives cover every queueing structure in the simulator:

* :class:`Resource` — a counted semaphore with FIFO grant order. Models
  things with *capacity*: a memory-controller's request slots, the
  RMC's single outstanding-request buffer, a DRAM bank.
* :class:`Store` — an unbounded-or-bounded FIFO of items. Models
  message queues: link ingress buffers, switch input queues, the
  reservation-protocol mailbox of the OS-lite daemon.

Usage pattern inside a process::

    grant = resource.request()
    yield grant
    try:
        ...  # hold the resource
    finally:
        resource.release(grant)

    yield store.put(item)        # blocks when the store is full
    store.offer(item)            # never waits: no put event at all
    item = yield store.get()     # blocks when the store is empty

Callback chains use the event-free forms of the same waits:
``resource.request_then(fn, arg)`` / ``resource.release_one()``,
``store.get_then(fn)`` and ``store.put_then(item, fn, arg)``. Each
schedules ``sim.call_later(0.0, fn, value)`` exactly where the event
form calls ``succeed`` (at grant, hand-over or acceptance). A callback
that has to wait is queued beside the waiting events, in one FIFO, so a
mixed queue keeps its order and a chain fires where the process it
replaces would have resumed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

__all__ = ["Resource", "Request", "Store"]


#: :attr:`Request._state` values
_QUEUED = 0
_HELD = 1
_DONE = 2


class Request(Event):
    """Grant event handed out by :meth:`Resource.request`.

    Carries its own bookkeeping: whether it is queued, held or done,
    and when it was queued (for the resource's wait-time total).
    """

    __slots__ = ("resource", "_queued_at", "_state")

    def __init__(self, sim: Simulator, resource: "Resource") -> None:
        super().__init__(sim)
        self.resource = resource
        self._state = _QUEUED


class _Waiter:
    """A queued callback standing in for the event a process would wait
    on: its owner calls :meth:`succeed` where it would succeed that
    event, and the callback is scheduled there as ``fn(arg)``."""

    __slots__ = ("sim", "fn", "arg", "_queued_at", "_state")

    def __init__(self, sim: Simulator, fn: Callable[[Any], Any], arg: Any) -> None:
        self.sim = sim
        self.fn = fn
        self.arg = arg

    def succeed(self, _value: Any = None) -> None:
        self.sim.call_later(0.0, self.fn, self.arg)


class Resource:
    """A counted, FIFO-fair resource.

    ``capacity`` users may hold the resource simultaneously; further
    requesters, events and callbacks alike, queue in arrival order.
    """

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "_count",
        "_queue",
        "total_requests",
        "total_wait_time",
    )

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._count = 0
        self._queue: Deque[Request | _Waiter] = deque()
        # instrumentation
        self.total_requests = 0
        self.total_wait_time = 0.0

    # -- public API ------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of current holders."""
        return self._count

    @property
    def queued(self) -> int:
        """Number of requesters still waiting."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for the resource; yield the returned event to wait for it."""
        req = Request(self.sim, self)
        self.total_requests += 1
        if self._count < self.capacity:
            self._grant(req)  # granted on the spot: no wait to account
        else:
            req._queued_at = self.sim.now
            self._queue.append(req)
        return req

    def request_then(self, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Callback form of :meth:`request`: ``fn(arg)`` runs at the
        grant; give the hold back with :meth:`release_one`."""
        self.total_requests += 1
        if self._count < self.capacity:
            self._count += 1
            self.sim.call_later(0.0, fn, arg)
        else:
            waiter = _Waiter(self.sim, fn, arg)
            waiter._queued_at = self.sim.now
            self._queue.append(waiter)

    def release(self, request: Request) -> None:
        """Give the resource back; grants the head of the queue, if any."""
        state = request._state if request.resource is self else _DONE
        if state == _HELD:
            request._state = _DONE
            self._count -= 1
            self._grant_next()
        elif state == _QUEUED:
            # Cancelled before it was granted.
            self._queue.remove(request)
            request._state = _DONE
        else:
            raise SimulationError("release() of a request that never held the resource")

    def release_one(self) -> None:
        """Give back a hold granted through :meth:`request_then`."""
        if self._count == 0:
            raise SimulationError("release_one() of a resource nobody holds")
        self._count -= 1
        self._grant_next()

    # -- internals ----------------------------------------------------------
    def _grant(self, req: Request | _Waiter) -> None:
        self._count += 1
        req._state = _HELD
        req.succeed(req)

    def _grant_next(self) -> None:
        if self._queue and self._count < self.capacity:
            head = self._queue.popleft()
            self.total_wait_time += self.sim.now - head._queued_at
            self._grant(head)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Resource {self.name or id(self):#x} {self.count}/{self.capacity} "
            f"queued={self.queued}>"
        )


class Store:
    """FIFO item store with optional bounded capacity.

    ``put`` returns an event that fires once the item is accepted
    (immediately unless the store is full). ``offer`` is the event-free
    put for callers that never wait on acceptance: it queues behind
    earlier putters exactly like ``put`` but schedules nothing, now or
    when the item is later admitted. ``get`` returns an event whose
    value is the retrieved item. ``get_then`` and ``put_then`` are the
    callback forms of ``get`` and ``put``.
    """

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "_items",
        "_getters",
        "_putters",
        "total_puts",
        "total_gets",
        "max_level",
    )

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        #: blocked getters in arrival order: get events, and the
        #: callbacks of ``get_then``
        self._getters: Deque[Event | Callable[[Any], Any]] = deque()
        #: blocked putters in arrival order: ``(item, put event or
        #: waiter)``, ``None`` for an offer
        self._putters: Deque[tuple[Any, Optional[Event | _Waiter]]] = deque()
        # instrumentation
        self.total_puts = 0
        self.total_gets = 0
        self.max_level = 0

    # -- public API ------------------------------------------------------------
    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Put *item*; the returned event fires when it is accepted."""
        evt = Event(self.sim)
        self._put(item, evt)
        return evt

    def put_then(
        self, item: Any, fn: Callable[[Any], Any], arg: Any = None
    ) -> None:
        """Callback form of :meth:`put`: ``fn(arg)`` runs once *item* is
        accepted."""
        if self.capacity is None or len(self._items) < self.capacity:
            self.total_puts += 1
            self._accept(item, None)
            self.sim.call_later(0.0, fn, arg)
        else:
            self._put(item, _Waiter(self.sim, fn, arg))

    def offer(self, item: Any) -> None:
        """Put *item* without a put event (nobody waits on acceptance).

        A waiting getter receives the item at the same point ``put``
        would hand it over; a full store queues it FIFO with the other
        putters.
        """
        self._put(item, None)

    def get(self) -> Event:
        """Take the oldest item; the returned event's value is the item."""
        evt = Event(self.sim)
        self.total_gets += 1
        if self._items:
            evt.succeed(self._items.popleft())
            if self._putters:
                self._admit_waiting_putter()
        else:
            self._getters.append(evt)
        return evt

    def get_then(self, fn: Callable[[Any], Any]) -> None:
        """Callback form of :meth:`get`: ``fn(item)`` runs once an item
        is handed over."""
        self.total_gets += 1
        if self._items:
            self.sim.call_later(0.0, fn, self._items.popleft())
            if self._putters:
                self._admit_waiting_putter()
        else:
            self._getters.append(fn)

    def try_get(self) -> Any:
        """Non-blocking get: return an item or ``None`` if empty."""
        if not self._items:
            return None
        self.total_gets += 1
        item = self._items.popleft()
        self._admit_waiting_putter()
        return item

    # -- internals ----------------------------------------------------------
    def _put(self, item: Any, put_evt: Optional[Event | _Waiter]) -> None:
        self.total_puts += 1
        if self.capacity is None or len(self._items) < self.capacity:
            self._accept(item, put_evt)
        else:
            self._putters.append((item, put_evt))

    def _accept(self, item: Any, put_evt: Optional[Event | _Waiter]) -> None:
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            if type(getter) is Event:
                getter.succeed(item)
            else:
                self.sim.call_later(0.0, getter, item)
        else:
            self._items.append(item)
            self.max_level = max(self.max_level, len(self._items))
        if put_evt is not None:
            put_evt.succeed(None)

    def _admit_waiting_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            self._accept(*self._putters.popleft())

    def __repr__(self) -> str:  # pragma: no cover
        cap = "inf" if self.capacity is None else self.capacity
        return f"<Store {self.name or id(self):#x} {self.level}/{cap}>"
