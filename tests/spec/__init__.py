"""Executable specifications the production engines are tested against.

Production code keeps one data path per engine: span classification
and burst packets, with a single-line step for one-line accesses, and
one event-list discipline. The per-line reference paths that define
what those batched paths must compute, and the plain-heap event list,
live here, next to the equivalence suites that use them, so
they are no longer a setting of the production API.

Each twin is a subclass that overrides only the batched methods (for
the engine, the entry-placing methods) of its production class:

* fast tier — construct :class:`~tests.spec.fastsim.ScalarLocalMemAccessor`
  (or the remote/swap twin) with the production constructor arguments;
* packet tier — build a ``Cluster`` as usual, then call
  :func:`~tests.spec.core.install_scalar_cores` (per-line cached and
  coherent accesses, per-line flush write-backs) and/or
  :func:`~tests.spec.rmc.install_scalar_prefetch` (one packet per
  prefetched line). Both rebind ``__class__`` on the built objects, so
  the twin shares every other line of production code;
* event engine — construct :class:`~tests.spec.engine.HeapSimulator`
  where a test would construct ``Simulator``, or build a ``Cluster`` as
  usual and call :func:`~tests.spec.engine.install_heap_engine`, which
  rebinds ``cluster.sim`` and moves the process kick-offs the build
  queued in the ready lane into the heap. Every entry then goes
  through one binary heap, the discipline the production two-lane
  event list must match event for event.

Standalone specs live here too: :class:`~tests.spec.cache.ReferenceCache`
(exact LRU, for the cache differential suite) and the per-element
columnar operators of :mod:`tests.spec.columnar`.

``python -m simcheck src tests`` (rule SIM005) checks that every
production method using a batched primitive is overridden by a twin
here that some test imports, and that every override still names a
method of its base class.
"""
