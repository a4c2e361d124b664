"""Live-mode (wall clock, threads) integration tests.

These exercise the exact code paths the runnable examples use: a
ThreadedTransport with real blocking calls, timer-driven burst ticks, and
concurrent clients.  Kept short in wall time (sub-second bursts).
"""

import threading

import pytest

from repro.core.api import ElasticObject
from repro.core.fields import elastic_field, synchronized
from repro.core.runtime import ElasticRuntime
from tests.rmi.test_transport import _wait_for


class LiveCache(ElasticObject):
    store_hits = elastic_field(default=0)

    def __init__(self):
        super().__init__()
        self.set_min_pool_size(2)
        self.set_max_pool_size(4)
        self.set_burst_interval(0.2)

    def put(self, key, value):
        return f"stored:{key}"

    def get(self, key):
        type(self).store_hits.update(self, lambda v: v + 1)
        return key.upper()

    @synchronized
    def critical(self):
        return "exclusive"


@pytest.fixture
def live():
    runtime = ElasticRuntime.local(nodes=4)
    yield runtime
    runtime.shutdown()


class TestLiveMode:
    def test_pool_starts_and_serves(self, live):
        pool = live.new_pool(LiveCache)
        # Activation runs on timer threads: wait for it, do not bet on it.
        assert _wait_for(lambda: pool.size() == 2)
        stub = live.stub("LiveCache")
        assert stub.get("abc") == "ABC"
        assert stub.put("k", "v") == "stored:k"

    def test_shared_state_across_members(self, live):
        live.new_pool(LiveCache)
        stub = live.stub("LiveCache")
        for i in range(8):
            stub.get(f"key-{i}")
        assert live.store.get("LiveCache$store_hits") == 8

    def test_concurrent_clients(self, live):
        live.new_pool(LiveCache)
        results = []
        lock = threading.Lock()

        def client(n):
            stub = live.stub("LiveCache", caller=f"client-{n}")
            for i in range(20):
                value = stub.get(f"c{n}-{i}")
                with lock:
                    results.append(value)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 80
        assert live.store.get("LiveCache$store_hits") == 80

    def test_synchronized_method_over_live_pool(self, live):
        live.new_pool(LiveCache)
        stub = live.stub("LiveCache")
        assert stub.critical() == "exclusive"

    def test_burst_ticks_fire_on_wall_clock(self, live):
        import time

        live.new_pool(LiveCache)
        record = live.record("LiveCache")
        deadline = time.monotonic() + 3.0
        while record.tick_count < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert record.tick_count >= 2

    def test_member_failure_masked_from_clients(self, live):
        pool = live.new_pool(LiveCache)
        assert _wait_for(lambda: pool.size() == 2)
        stub = live.stub("LiveCache")
        stub.get("warm")
        victim = pool.active_members()[1]
        live.transport.kill(victim.endpoint_id)
        assert stub.get("after-failure") == "AFTER-FAILURE"


class TestTransportSelection:
    def test_env_default_is_threaded(self, monkeypatch):
        from repro.core.runtime import transport_from_env
        from repro.rmi import ThreadedTransport

        monkeypatch.delenv("ERMI_TRANSPORT", raising=False)
        transport = transport_from_env()
        try:
            assert isinstance(transport, ThreadedTransport)
        finally:
            transport.shutdown()

    def test_env_selects_asyncio(self, monkeypatch):
        from repro.core.runtime import transport_from_env
        from repro.rmi import AsyncioTransport

        monkeypatch.setenv("ERMI_TRANSPORT", "asyncio")
        transport = transport_from_env()
        try:
            assert isinstance(transport, AsyncioTransport)
        finally:
            transport.shutdown()

    def test_explicit_name_beats_env(self, monkeypatch):
        from repro.core.runtime import transport_from_env
        from repro.rmi import AsyncioTransport

        monkeypatch.setenv("ERMI_TRANSPORT", "threaded")
        transport = transport_from_env("aio")
        try:
            assert isinstance(transport, AsyncioTransport)
        finally:
            transport.shutdown()

    def test_instance_passes_through(self):
        from repro.core.runtime import transport_from_env
        from repro.rmi import DirectTransport

        transport = DirectTransport()
        assert transport_from_env(transport) is transport

    def test_unknown_name_rejected(self):
        from repro.core.runtime import transport_from_env
        from repro.errors import PoolConfigurationError

        with pytest.raises(PoolConfigurationError, match="unknown transport"):
            transport_from_env("carrier-pigeon")


@pytest.fixture
def aio_live():
    runtime = ElasticRuntime.local(nodes=4, transport="asyncio")
    yield runtime
    runtime.shutdown()


class TestAsyncioLiveMode:
    """The same live-mode contract, on the event-loop transport."""

    def test_pool_starts_and_serves(self, aio_live):
        pool = aio_live.new_pool(LiveCache)
        assert _wait_for(lambda: pool.size() == 2)
        stub = aio_live.stub("LiveCache")
        assert stub.get("abc") == "ABC"
        assert stub.put("k", "v") == "stored:k"

    def test_shared_state_across_members(self, aio_live):
        aio_live.new_pool(LiveCache)
        stub = aio_live.stub("LiveCache")
        for i in range(8):
            stub.get(f"key-{i}")
        assert aio_live.store.get("LiveCache$store_hits") == 8

    def test_async_fanout_through_pool(self, aio_live):
        from repro.rmi import gather

        aio_live.new_pool(LiveCache)
        stub = aio_live.stub("LiveCache")
        futures = [stub.invoke_async("get", f"k{i}") for i in range(200)]
        assert gather(futures) == [f"K{i}" for i in range(200)]

    def test_synchronized_method_over_aio_pool(self, aio_live):
        aio_live.new_pool(LiveCache)
        stub = aio_live.stub("LiveCache")
        assert stub.critical() == "exclusive"

    def test_member_failure_masked_from_clients(self, aio_live):
        pool = aio_live.new_pool(LiveCache)
        assert _wait_for(lambda: pool.size() == 2)
        stub = aio_live.stub("LiveCache")
        stub.get("warm")
        victim = pool.active_members()[1]
        aio_live.transport.kill(victim.endpoint_id)
        assert stub.get("after-failure") == "AFTER-FAILURE"
