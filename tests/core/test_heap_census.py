"""Heap census under resize churn (live: threads, wall clock).

A long-lived runtime grows and shrinks its pools all day; whatever a
resize leaves behind accumulates.  These tests run ``CYCLES``
grow/shrink cycles after ``WARMUP`` and assert *slopes*, not sizes:
threads and open fds stay flat, and the tracked objects the collector
walks grow per cycle below a ceiling.

The runtime freezes the heap at construction, so ``gc.get_objects()``
after a collection holds only what the runtime made since.  The
ceilings are today's measured slopes plus a margin (threaded 62.3,
asyncio 35.0 objects per cycle).  Known contributors, all kept on
purpose for now, to be lowered together with the ceilings:

- ``pool.members`` keeps every member ever, each holding its skeleton,
  instance, stats and monitor; ``pool.provisioning_records`` and
  ``pool.scaling_events`` keep two records each per cycle;
- ``ThreadedTransport._dispatchers`` keeps each killed endpoint's
  closed ``_Dispatcher``, with its ``_DispatchStats`` and three
  ``StripedCounter``\\ s, on every resize (the threaded transport's
  extra 27 per cycle), and every transport's endpoint map keeps the
  killed ``Endpoint``.
"""

from __future__ import annotations

import gc
import os
import threading
import time

import pytest

from repro.core.api import ElasticObject
from repro.core.pool import MemberState
from repro.core.runtime import ElasticRuntime
from tests.rmi.test_transport import _wait_for

WAIT_S = 30.0
WARMUP = 20
CYCLES = 100
CEILING = {"threaded": 75.0, "asyncio": 45.0}  # tracked objects per cycle
FD_DIR = "/proc/self/fd"


class _Who(ElasticObject):
    def __init__(self):
        super().__init__()
        self.set_min_pool_size(2)
        self.set_max_pool_size(8)

    def who(self):
        return self._ermi_ctx.member.uid


@pytest.fixture(params=["threaded", "asyncio"])
def live(request):
    """A 2-member ``who()`` pool and a stub that has made first contact."""
    runtime = ElasticRuntime.local(
        nodes=2, slices_per_node=4, transport=request.param, seed=1
    )
    try:
        pool = runtime.new_pool(_Who, name="svc", min_size=2)
        assert _wait_for(lambda: pool.size() == 2, WAIT_S)
        stub = runtime.stub("svc")
        stub.who()
        yield request.param, runtime, pool, stub
    finally:
        runtime.shutdown()


def cycle(runtime, pool, stub) -> None:
    """grow(1), call until the new member serves, shrink(1), and wait
    until its slice is back with the master."""
    free = runtime.master.free_slice_count()
    known = set(pool.members)
    assert pool.grow(1) == 1
    (uid,) = set(pool.members) - known
    member = pool.members[uid]
    assert _wait_for(lambda: member.state is MemberState.ACTIVE, WAIT_S)
    assert uid in [stub.who() for _ in range(8)]
    assert pool.shrink(1) == 1
    assert _wait_for(lambda: runtime.master.free_slice_count() == free, WAIT_S)


def census() -> tuple[int, int, int]:
    """(unfrozen tracked objects, threads, open fds), after a collection."""
    gc.collect()
    fds = len(os.listdir(FD_DIR)) if os.path.isdir(FD_DIR) else 0
    return len(gc.get_objects()), threading.active_count(), fds


def settled_threads(at_most: int) -> int:
    """Thread count once cancelled timers and closing workers have gone
    (they exit on their own a moment after the resize that ended them)."""
    _wait_for(lambda: threading.active_count() <= at_most, 5.0)
    return threading.active_count()


class TestResizeChurnSlopes:
    def test_threads_fds_and_tracked_objects_stay_flat(self, live):
        transport, runtime, pool, stub = live
        for _ in range(WARMUP):
            cycle(runtime, pool, stub)
        objects0, threads0, fds0 = census()
        started = time.perf_counter()
        for _ in range(CYCLES):
            cycle(runtime, pool, stub)
        objects1, _, fds1 = census()
        seconds = time.perf_counter() - started
        slope = (objects1 - objects0) / CYCLES
        assert settled_threads(threads0) <= threads0
        assert fds1 <= fds0
        assert slope < CEILING[transport], (
            f"{transport}: {slope:.1f} tracked objects per cycle over "
            f"{CYCLES} cycles ({seconds:.2f} s)"
        )
