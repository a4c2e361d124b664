"""What a steady-state call costs the stub: pick a member and send.

Retry, refresh and failover run only after a send fails (paper section
4.3), so a call on a healthy, warmed-up pool must build no retry state,
take no lock in the store cache it reads the membership epoch through,
and read the stub's clock once — the reading the time budget counts
from.  Checked on a live runtime on each way a call can be driven: the
blocking proxy, and ``invoke_async`` on the event loop with and without
a batcher.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.runtime import ElasticRuntime
from repro.faults.policy import RetryPolicy
from repro.rmi.batching import RequestBatcher
from repro.rmi.future import gather
from tests.core.conftest import EchoService
from tests.rmi.test_transport import _wait_for

CALLS = 64
WAIT_S = 30.0


class CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0

    def acquire(self, *args) -> bool:
        self.acquired += 1
        return self._lock.acquire(*args)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


class CountingClock:
    """Wraps a clock and counts its readings."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self.reads = 0

    def now(self) -> float:
        self.reads += 1
        return self._clock.now()


def proxy(stub, values):
    return [stub.echo(value) for value in values]


def wave(stub, values):
    return gather([stub.invoke_async("echo", v) for v in values], timeout=WAIT_S)


DRIVERS = {
    "threaded-proxy": ("threaded", False, proxy),
    "asyncio-loop-native": ("asyncio", False, wave),
    "asyncio-batched-wave": ("asyncio", True, wave),
}


@pytest.fixture(params=list(DRIVERS))
def warm(request):
    """A live pool of two and a stub that has made its first calls."""
    transport, batched, drive = DRIVERS[request.param]
    runtime = ElasticRuntime.local(nodes=2, transport=transport)
    try:
        pool = runtime.new_pool(EchoService)
        assert _wait_for(lambda: pool.size() == 2, timeout=WAIT_S)
        batcher = (
            RequestBatcher(runtime.transport, max_batch=16) if batched else None
        )
        stub = runtime.stub(pool.name, batcher=batcher)
        assert drive(stub, list(range(CALLS))) == list(range(CALLS))
        yield runtime, stub, drive
    finally:
        runtime.shutdown()


def test_a_steady_state_call_builds_no_retry_state_and_takes_no_cache_lock(
    warm, monkeypatch
):
    runtime, stub, drive = warm
    cache = runtime.store_cache
    hits = cache.stats()["hits"]
    starts = []
    start = RetryPolicy.start

    def counting_start(policy, *args, **kwargs):
        starts.append(policy)
        return start(policy, *args, **kwargs)

    monkeypatch.setattr(RetryPolicy, "start", counting_start)
    lock = CountingLock()
    monkeypatch.setattr(cache, "_lock", lock)
    cache_clock = CountingClock(runtime.scheduler.clock)
    monkeypatch.setattr(cache, "_clock", cache_clock.now)
    clock = CountingClock(stub._clock)
    monkeypatch.setattr(stub, "_clock", clock)

    values = list(range(CALLS))
    assert drive(stub, values) == values

    assert starts == []
    assert lock.acquired == 0
    assert cache_clock.reads == 0
    assert clock.reads == CALLS
    assert cache.stats()["hits"] - hits == CALLS  # one epoch read per call
