"""Tests for Resource and Store."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Resource, Store


def test_resource_grants_up_to_capacity(sim):
    res = Resource(sim, capacity=2)
    order = []

    def worker(sim, res, wid):
        grant = res.request()
        yield grant
        order.append((sim.now, wid))
        yield sim.timeout(10.0)
        res.release(grant)

    for wid in range(4):
        sim.process(worker(sim, res, wid))
    sim.run()
    assert order == [(0.0, 0), (0.0, 1), (10.0, 2), (10.0, 3)]


def test_resource_fifo_fairness(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, wid, delay):
        yield sim.timeout(delay)
        grant = res.request()
        yield grant
        order.append(wid)
        yield sim.timeout(100.0)
        res.release(grant)

    # arrival order: 0 (t=0), 1 (t=1), 2 (t=2)
    for wid in range(3):
        sim.process(worker(sim, res, wid, float(wid)))
    sim.run()
    assert order == [0, 1, 2]


def test_resource_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_release_unknown_request_is_error(sim):
    res1 = Resource(sim, 1)
    res2 = Resource(sim, 1)
    grant = res1.request()
    with pytest.raises(SimulationError):
        res2.release(grant)


def test_release_queued_request_cancels_it(sim):
    res = Resource(sim, 1)
    first = res.request()
    second = res.request()
    assert res.queued == 1
    res.release(second)  # cancel while still waiting
    assert res.queued == 0
    res.release(first)
    assert res.count == 0


def test_resource_counts(sim):
    res = Resource(sim, capacity=2)
    g1 = res.request()
    g2 = res.request()
    g3 = res.request()
    assert res.count == 2
    assert res.queued == 1
    res.release(g1)
    assert res.count == 2  # g3 was granted
    assert res.queued == 0
    res.release(g2)
    res.release(g3)
    assert res.count == 0


def test_resource_wait_time_accounting(sim):
    res = Resource(sim, 1)

    def holder(sim, res):
        grant = res.request()
        yield grant
        yield sim.timeout(25.0)
        res.release(grant)

    def waiter(sim, res):
        grant = res.request()
        yield grant
        res.release(grant)

    sim.process(holder(sim, res))
    sim.process(waiter(sim, res))
    sim.run()
    assert res.total_requests == 2
    assert res.total_wait_time == 25.0


def test_store_fifo_order(sim):
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(5):
            yield store.put(i)

    def consumer(sim, store):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    log = []

    def consumer(sim, store):
        item = yield store.get()
        log.append((sim.now, item))

    def producer(sim, store):
        yield sim.timeout(8.0)
        yield store.put("late")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert log == [(8.0, "late")]


def test_bounded_store_blocks_put(sim):
    store = Store(sim, capacity=1)
    log = []

    def producer(sim, store):
        yield store.put("a")
        log.append(("a_in", sim.now))
        yield store.put("b")  # blocks until a consumed
        log.append(("b_in", sim.now))

    def consumer(sim, store):
        yield sim.timeout(10.0)
        yield store.get()

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert log == [("a_in", 0.0), ("b_in", 10.0)]


def test_store_handoff_to_waiting_getter(sim):
    """An item offered while a getter waits bypasses the buffer."""
    store = Store(sim, capacity=1)

    def consumer(sim, store):
        item = yield store.get()
        return item

    def producer(sim, store):
        yield sim.timeout(1.0)
        yield store.put("direct")

    c = sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert c.value == "direct"
    assert store.level == 0


def test_store_try_get(sim):
    store = Store(sim)
    assert store.try_get() is None
    store.put("x")
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_level_and_max_level(sim):
    store = Store(sim)
    for i in range(3):
        store.put(i)
    assert store.level == 3
    assert store.max_level == 3
    store.get()
    assert store.level == 2


def test_store_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_instrumentation_counters(sim):
    store = Store(sim)
    store.put(1)
    store.put(2)
    store.get()
    assert store.total_puts == 2
    assert store.total_gets == 1


def test_release_twice_or_after_cancel_is_error(sim):
    res = Resource(sim, 1)
    held = res.request()
    queued = res.request()
    res.release(queued)  # cancelled while waiting: nothing is granted
    assert (res.count, res.queued) == (1, 0)
    with pytest.raises(SimulationError, match="never held"):
        res.release(queued)
    res.release(held)
    with pytest.raises(SimulationError, match="never held"):
        res.release(held)
    assert (res.count, res.queued) == (0, 0)


def test_contended_resource_statistics(sim):
    """Holder count, queue length and wait totals on a contended
    trace, pinned to the values of the set/dict bookkeeping the
    per-request state replaced."""
    res = Resource(sim, capacity=2)
    samples = []

    def worker(sim, res, wid):
        for k in range(4):
            yield sim.timeout((wid * 3 + k * 5) % 7)
            grant = res.request()
            samples.append((sim.now, res.count, res.queued))
            yield grant
            yield sim.timeout(2.0 + (wid + k) % 3)
            res.release(grant)
            samples.append((sim.now, res.count, res.queued))

    for wid in range(5):
        sim.process(worker(sim, res, wid))
    sim.run()
    assert res.total_requests == 20
    assert (res.count, res.queued) == (0, 0)
    assert res.total_wait_time == 24.0
    assert max(queued for _, _, queued in samples) == 3  # contended
    assert hashlib.sha256(repr(samples).encode()).hexdigest() == (
        "76ec0390251f13c8dd42fc0697ddd0ce1f9013c235f1bdf96c21aebbd4194484"
    )


def test_offer_into_full_store_queues_behind_putters(sim):
    store = Store(sim, capacity=1)
    store.put("a")
    blocked = store.put("b")  # an event putter, queued
    store.offer("c")  # queues behind it
    assert store.level == 1 and not blocked.triggered
    got = []

    def consumer(sim, store):
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(consumer(sim, store))
    before = sim.events_scheduled
    sim.run()
    assert got == ["a", "b", "c"]
    assert blocked.processed
    # kick-off, three gets and b's put event: admitting "c" schedules
    # nothing
    assert sim.events_scheduled - before == 5
    assert store.total_puts == 3


@pytest.mark.parametrize("use_offer", [False, True])
def test_offer_hands_over_where_put_does(sim, use_offer):
    store = Store(sim)
    order = []
    getter = store.get()
    getter.add_callback(lambda e: order.append(("get", e.value)))
    sim.timeout(0.0).add_callback(lambda _e: order.append("before"))
    before = sim.events_scheduled
    if use_offer:
        assert store.offer("x") is None
    else:
        store.put("x")
    scheduled = sim.events_scheduled - before
    sim.timeout(0.0).add_callback(lambda _e: order.append("after"))
    sim.run()
    assert order == ["before", ("get", "x"), "after"]
    # put also schedules its own put event; offer only the hand-over
    assert scheduled == (1 if use_offer else 2)
