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


# -- callback forms ----------------------------------------------------------


def test_store_try_get_counts_the_gets_it_serves(sim):
    store = Store(sim)
    assert store.try_get() is None
    assert store.total_gets == 0  # nothing taken, nothing counted
    store.put("x")
    assert store.try_get() == "x"
    assert store.total_gets == 1


def test_store_callback_forms_count_like_the_event_forms(sim):
    events, callbacks = Store(sim, capacity=1), Store(sim, capacity=1)
    for store, put, get in (
        (events, lambda s, i: s.put(i), lambda s: s.get()),
        (callbacks, lambda s, i: s.put_then(i, print), lambda s: s.get_then(print)),
    ):
        get(store)  # a waiting getter
        for i in range(3):  # the last one blocks on the full store
            put(store, i)
        get(store)
    for store in (events, callbacks):
        assert (store.total_puts, store.total_gets) == (3, 2)
        assert store.level == 1 and len(store._putters) == 0


def test_store_mixed_event_and_callback_getters_are_served_fifo(sim):
    store = Store(sim)
    served = []

    def event_getter(name):
        item = yield store.get()
        served.append((name, item))

    sim.process(event_getter("e1"))
    sim.run()  # e1 is now queued
    store.get_then(lambda item: served.append(("c1", item)))
    sim.process(event_getter("e2"))
    sim.run()
    store.get_then(lambda item: served.append(("c2", item)))
    for item in "abcd":
        store.offer(item)
    sim.run()
    assert served == [("e1", "a"), ("c1", "b"), ("e2", "c"), ("c2", "d")]


def test_store_mixed_event_and_callback_putters_are_admitted_fifo(sim):
    store = Store(sim, capacity=1)
    store.offer("full")
    admitted = []
    store.put("p1").add_callback(lambda _e: admitted.append("p1"))
    store.put_then("p2", admitted.append, "p2")
    store.put("p3").add_callback(lambda _e: admitted.append("p3"))
    taken = []
    for _ in range(4):
        store.get_then(taken.append)
        sim.run()
    assert taken == ["full", "p1", "p2", "p3"]
    assert admitted == ["p1", "p2", "p3"]


def test_resource_mixed_event_and_callback_requests_granted_fifo(sim):
    res = Resource(sim, capacity=1)
    held = res.request()
    granted = []

    def waiter(name):
        grant = yield res.request()
        granted.append((sim.now, name))
        yield sim.timeout(1.0)
        res.release(grant)

    def callback_holder(name):
        granted.append((sim.now, name))
        sim.call_later(1.0, lambda _arg: res.release_one())

    sim.process(waiter("e1"))
    sim.run()
    res.request_then(callback_holder, "c1")
    sim.process(waiter("e2"))
    sim.run()
    res.request_then(callback_holder, "c2")
    assert res.queued == 4
    sim.call_later(5.0, lambda _arg: res.release(held))
    sim.run()
    assert granted == [(5.0, "e1"), (6.0, "c1"), (7.0, "e2"), (8.0, "c2")]
    assert res.count == 0 and res.total_requests == 5
    assert res.total_wait_time == 5.0 + 6.0 + 7.0 + 8.0


def test_resource_release_one_of_an_idle_resource_is_error(sim):
    res = Resource(sim, 1)
    with pytest.raises(SimulationError):
        res.release_one()


def _wait_points(sim_cls, callback: bool) -> list:
    """A store and a resource under contention, with markers due at the
    same instants; every firing logs ``(time, label, seqs drawn)``."""
    sim = sim_cls()
    store = Store(sim, capacity=1)
    res = Resource(sim, capacity=1)
    log = []

    def mark(label):
        log.append((sim.now, label, sim.events_scheduled))

    def marker(label, delays):
        for d in delays:
            yield sim.timeout(d)
            mark(label)

    def hold():
        grant = yield res.request()
        mark("held")
        yield sim.timeout(2.0)
        res.release(grant)

    def producer():
        yield sim.timeout(1.0)
        for i in range(3):  # put0 meets the waiting getter, put2 blocks
            yield store.put(i)
            mark(f"put{i}")

    def waits():
        # each wait in the form under test, queued behind contention so
        # that a later hand-over, release or get completes it
        if callback:
            store.get_then(lambda item: mark(f"got{item}"))
            res.request_then(lambda _arg: mark("granted"))
        else:
            store.get().add_callback(lambda e: mark(f"got{e.value}"))
            res.request().add_callback(lambda _e: mark("granted"))
        yield sim.timeout(1.5)
        if callback:
            store.put_then("late", lambda _arg: mark("admitted"))
        else:
            store.put("late").add_callback(lambda _e: mark("admitted"))

    sim.process(marker("m0", [0.0, 0.0, 1.0, 0.0, 1.0]))
    sim.process(hold())
    sim.process(waits())
    sim.process(producer())
    sim.process(marker("m1", [0.0, 1.0, 0.0, 1.0]))
    sim.run()
    for _ in range(3):
        store.get_then(lambda item: mark(f"drained{item}"))
        sim.run()
    return log


def test_callback_waits_fire_where_event_waits_fire():
    """A callback waiter fires at the same ``(time, seq)`` point as the
    event form it replaces, on the production engine and on the
    plain-heap twin: same position among same-instant neighbours, same
    number of seqs drawn before it."""
    from tests.spec.engine import HeapSimulator
    from repro.sim.engine import Simulator

    reference = _wait_points(HeapSimulator, callback=False)
    labels = {label for _, label, _ in reference}
    # vacuity: every callback form was exercised, at contended points
    assert {"got0", "granted", "admitted", "put2", "drainedlate"} <= labels
    assert [t for t, label, _ in reference if label == "granted"] == [2.0]
    for sim_cls in (Simulator, HeapSimulator):
        for callback in (False, True):
            assert _wait_points(sim_cls, callback) == reference
