"""The runtime freezes the static heap it is built on.

``ElasticRuntime.__init__`` ends with ``gc.collect(); gc.freeze()`` and
``shutdown()`` ends with ``gc.unfreeze()``.  These tests pin what that
pair means to the process around it.  Tests share one interpreter, so
none assumes the freeze count starts at zero: another test's runtime
may already have frozen (or, at its shutdown, unfrozen) the heap.
"""

from __future__ import annotations

import gc
import time
import weakref

import pytest

from repro.core.runtime import ElasticRuntime
from repro.sim.kernel import Kernel

SETTLE_S = 5.0


class _Cycle:
    """A self-referencing object: only the cyclic collector frees it."""

    def __init__(self) -> None:
        self.me = self


def _tracked(obj) -> bool:
    """Whether the collector still walks ``obj`` (frozen objects are not
    in ``gc.get_objects()``)."""
    return any(o is obj for o in gc.get_objects())


def _dies(ref: weakref.ref) -> bool:
    """Collect until ``ref`` dies; a live runtime's cancelled timer
    threads may hold it for a moment after shutdown."""
    deadline = time.monotonic() + SETTLE_S
    while time.monotonic() < deadline:
        gc.collect()
        if ref() is None:
            return True
        time.sleep(0.01)
    return False


@pytest.fixture(params=["local", "simulated"])
def build(request):
    """A runtime constructor for each operating mode.  It holds what it
    built weakly, so a test can drop a runtime, and shuts down at
    teardown whatever is still alive."""
    built: list[weakref.ref] = []

    def make() -> ElasticRuntime:
        if request.param == "local":
            runtime = ElasticRuntime.local(nodes=2, slices_per_node=2)
        else:
            runtime = ElasticRuntime.simulated(Kernel(), nodes=2, slices_per_node=2)
        built.append(weakref.ref(runtime))
        return runtime

    yield make
    for ref in built:
        runtime = ref()
        if runtime is not None:
            runtime.shutdown()


class TestConstructionFreezes:
    def test_the_import_graph_is_frozen_and_little_is_left(self, build):
        gc.collect()
        live_before = gc.get_freeze_count() + len(gc.get_objects())
        runtime = build()
        # Every object alive before construction (the import graph, the
        # test session) plus the substrates just built is frozen ...
        assert gc.get_freeze_count() >= 0.95 * live_before
        # ... so a full pass walks only what was made since.
        assert len(gc.get_objects()) < 500
        runtime.shutdown()

    def test_objects_alive_at_construction_are_frozen(self, build):
        import repro.core.runtime as module

        held = _Cycle()
        runtime = build()
        assert not _tracked(held)
        assert not _tracked(vars(module))
        assert not _tracked(runtime)

    def test_cyclic_garbage_is_collected_not_frozen(self, build):
        """Freezing without collecting first would pin this forever."""
        gc.disable()  # only the runtime's own collect may free it
        try:
            garbage = _Cycle()
            ref = weakref.ref(garbage)
            gc.collect()  # promote it to the oldest generation while live
            del garbage
            assert ref() is not None
            build()
            assert ref() is None
        finally:
            gc.enable()


class TestShutdownUnfreezes:
    def test_a_dropped_runtime_is_reclaimed_after_shutdown(self, build):
        runtime = build()
        ref = weakref.ref(runtime)
        runtime.shutdown()
        assert gc.get_freeze_count() == 0
        del runtime
        assert _dies(ref)

    def test_an_object_live_at_construction_dies_only_after_shutdown(
        self, build
    ):
        held = _Cycle()
        ref = weakref.ref(held)
        runtime = build()
        del held
        gc.collect()
        assert ref() is not None  # frozen: no pass walks it
        runtime.shutdown()
        assert _dies(ref)
