"""Differential tests: the engine's two-lane event list against the
plain binary-heap twin, one event at a time and through whole runs.

:class:`~tests.spec.engine.HeapSimulator` is the executable
specification of event ordering; the production
:class:`~repro.sim.engine.Simulator` must match its fire sequence
exactly on every schedule, including same-timestamp ties and schedules
interleaved with fires. Vacuity guards check that the production
engine really uses its ready lane and that the twin never does.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import Store
from tests.spec.engine import HeapSimulator, lanes

ENGINES = [
    pytest.param(Simulator, id="bucket"),
    pytest.param(HeapSimulator, id="heapq"),
]


def test_simulator_unknown_queue_kind_rejected():
    # the event list is no longer selectable
    with pytest.raises(TypeError):
        Simulator(queue="fifo")


# -- event-at-a-time differential -------------------------------------------


def _queue_run(sim_cls, seed: int) -> tuple[list, int]:
    """Drive one simulator through a random schedule with ``step()``.

    Events are scheduled at the current clock (due now and later,
    including exact ties); each step fires one and may schedule more.
    Returns the ``(time, id)`` fire sequence and the most entries ever
    seen waiting in the ready lane.
    """
    rng = random.Random(seed)
    sim = sim_cls()
    seq = 0
    out: list[tuple[float, int]] = []
    ready_max = 0

    def record(evt):
        out.append((sim.now, evt.value))

    def schedule_some(n: int) -> None:
        nonlocal seq
        for _ in range(n):
            delay = rng.choice([0.0, 0.0, 0.25, 1.0, rng.random() * 4])
            evt = sim.event()
            evt.add_callback(record)
            evt.succeed(seq, delay=delay)
            seq += 1

    schedule_some(12)
    while sim.peek() != float("inf"):
        before = sim.now
        sim.step()
        assert sim.now >= before  # clock monotonicity
        if rng.random() < 0.4 and seq < 300:
            schedule_some(rng.randrange(0, 3))
        ready_max = max(ready_max, lanes(sim)[0])
    return out, ready_max


@pytest.mark.parametrize("seed", range(25))
def test_queue_differential_random_schedules(seed):
    fast, _ = _queue_run(Simulator, seed)
    ref, ref_ready = _queue_run(HeapSimulator, seed)
    assert fast == ref
    assert ref_ready == 0


def test_random_schedules_exercise_the_ready_lane():
    assert all(_queue_run(Simulator, seed)[1] > 0 for seed in range(25))


def test_queue_ties_pop_in_seq_order():
    for sim_cls in (Simulator, HeapSimulator):
        sim = sim_cls()
        got: list = []
        for name, when in (("a", 5.0), ("b", 2.0), ("c", 5.0), ("d", 2.0)):
            sim.timeout(when, name).add_callback(lambda e: got.append(e.value))
        for _ in range(4):
            sim.step()
        assert got == ["b", "d", "a", "c"], sim_cls.__name__


def test_bucket_ready_lane_catches_now_pushes():
    sim = Simulator()
    sim.timeout(3.0)
    assert lanes(sim) == (0, 1)
    sim.step()
    # clock is now 3.0: a timeout due exactly now goes to the ready
    # lane, not the heap
    sim.timeout(0.0, "tie")
    assert lanes(sim) == (1, 0)
    sim.step()
    # a clock advance drains every heap entry tied at the new time
    for when in (5.0, 5.0, 5.0, 7.0):
        sim.timeout(when)
    assert lanes(sim) == (0, 4)
    sim.step()
    assert sim.now == 8.0 and lanes(sim) == (2, 1)


def test_heap_twin_never_uses_the_ready_lane():
    sim = HeapSimulator()
    sim.timeout(3.0)
    sim.step()
    sim.timeout(0.0)
    sim.event().succeed()

    def idle():
        yield sim.timeout(1.0)

    sim.process(idle())
    assert lanes(sim) == (0, 3)


# -- whole-run differential -------------------------------------------------


def _sim_trace(
    sim_cls, seed: int, until=None, debug: bool = False
) -> tuple[list, list[int]]:
    """A mixed workload: tied timeouts, store hand-offs, event chains.

    Returns the complete observable trace — (time, actor, step) tuples
    in fire order plus the final clock — which must be bit-identical
    across engines, and the ready-lane length seen at every trace point
    as the vacuity guards' evidence.
    """
    rng = random.Random(seed)
    sim = sim_cls(debug=debug)
    store: Store = Store(sim)
    trace: list = []
    ready_seen: list[int] = []

    def note(*entry) -> None:
        trace.append(entry)
        ready_seen.append(lanes(sim)[0])

    def ticker(pid: int, sub: int):
        r = random.Random(sub)
        for k in range(10):
            yield sim.timeout(r.choice([0.0, 0.0, 0.5, 1.0, 3.75]))
            note(sim.now, "tick", pid, k)

    def producer():
        for i in range(8):
            yield store.put(i)
            yield sim.timeout(rng.choice([0.0, 1.0]))

    def consumer():
        for _ in range(8):
            item = yield store.get()
            note(sim.now, "got", item)

    for pid in range(5):
        sim.process(ticker(pid, seed * 100 + pid))
    sim.process(producer())
    sim.process(consumer())
    sim.run(until=until)
    trace.append(("final", sim.now))
    return trace, ready_seen


def _differential(seed: int, until=None) -> None:
    fast, fast_ready = _sim_trace(Simulator, seed, until)
    ref, ref_ready = _sim_trace(HeapSimulator, seed, until)
    assert fast == ref
    assert not any(ref_ready)
    assert any(fast_ready)  # the production engine used its ready lane


@pytest.mark.parametrize("seed", range(10))
def test_simulator_differential_traces(seed):
    _differential(seed)


@pytest.mark.parametrize("until", [0.0, 0.5, 1.0, 3.75, 7.25, 1000.0])
def test_simulator_differential_run_until_boundary(until):
    _differential(3, until)


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_step_on_empty_queue_raises(sim_cls):
    sim = sim_cls()
    with pytest.raises(SimulationError, match="no events scheduled"):
        sim.step()


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_debug_mode_matches_plain_mode(sim_cls):
    """The sanitized step path and the inlined hot loop fire the same
    schedule — debug mode must never change replay."""
    assert _sim_trace(sim_cls, 7) == _sim_trace(sim_cls, 7, debug=True)
