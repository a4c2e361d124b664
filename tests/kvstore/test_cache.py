"""WatchCache: read-through, push invalidation, leases, failure fallback.

Watch mode (store in-process) must be exact — pushed events keep entries
current so hits never go stale; lease mode (foreign runtime) bounds
staleness by ``lease_ms``.  Both serve the last-known value
when the owning store node is down (stale-serve), matching the stub's
historical epoch-outage behaviour.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import KeyNotFoundError
from repro.kvstore import HyperStore, WatchCache


@pytest.fixture
def store():
    return HyperStore(nodes=2)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestWatchMode:
    def test_hit_after_miss_with_zero_store_reads(self, store):
        reads = []
        store._on_op = lambda op, key: reads.append(key) if op == "get" else None
        cache = WatchCache(store)
        store.put("k", 41)
        reads.clear()
        assert cache.get("k") == 41  # miss: one store read
        assert len(reads) == 1
        for _ in range(100):
            assert cache.get("k") == 41
        assert len(reads) == 1  # hits are free
        assert cache.stats()["hits"] == 100

    def test_pushed_write_updates_entry_without_rereading(self, store):
        cache = WatchCache(store)
        store.put("k", 1)
        assert cache.get("k") == 1
        store.put("k", 2)  # pushed event, no lease involved
        misses_before = cache.stats()["misses"]
        assert cache.get("k") == 2
        assert cache.stats()["misses"] == misses_before

    def test_pushed_delete_makes_key_absent(self, store):
        cache = WatchCache(store)
        store.put("k", 1)
        assert cache.get("k") == 1
        store.delete("k")
        assert cache.get("k", default="gone") == "gone"
        with pytest.raises(KeyNotFoundError):
            cache.get("k")

    def test_write_through_put_reads_own_write(self, store):
        reads = []
        store._on_op = lambda op, key: reads.append(key) if op == "get" else None
        cache = WatchCache(store)
        version = cache.put("k", "mine")
        assert version == 1
        assert store.get("k") == "mine"
        reads.clear()
        assert cache.get("k") == "mine"
        assert reads == []  # served from the written-through entry

    def test_update_delegates_rmw_to_store(self, store):
        cache = WatchCache(store)
        store.put("n", 10)
        assert cache.get("n") == 10
        assert cache.update("n", lambda v: v + 5) == 15
        assert cache.get("n") == 15
        assert store.get("n") == 15

    def test_update_does_not_subscribe(self, store):
        cache = WatchCache(store)
        watched = cache.stats()["watched_keys"]
        subscriptions = store.watch_stats()["subscriptions"]
        assert cache.update("ctr", lambda v: v + 1, default=0) == 1
        assert cache.stats()["watched_keys"] == watched
        assert store.watch_stats()["subscriptions"] == subscriptions
        assert cache.get("ctr") == 1  # the first read subscribes...
        assert store.watch_stats()["subscriptions"] == subscriptions + 1
        store.put("ctr", 7)  # ...so another writer's put reaches it
        assert cache.get("ctr") == 7

    def test_absent_key_confirmed_and_cached(self, store):
        cache = WatchCache(store)
        assert cache.get("ghost", default=None) is None
        misses = cache.stats()["misses"]
        assert cache.get("ghost", default=None) is None
        assert cache.stats()["misses"] == misses  # absence is cached too
        store.put("ghost", "now-here")  # pushed put revives it
        assert cache.get("ghost") == "now-here"

    def test_close_cancels_subscriptions(self, store):
        cache = WatchCache(store)
        store.put("k", 1)
        cache.get("k")
        assert store.watch_stats()["subscriptions"] == 1
        cache.close()
        assert store.watch_stats()["subscriptions"] == 0


class TestLeaseMode:
    def test_lease_bounds_staleness(self, store):
        clock = FakeClock()
        cache = WatchCache(store, lease_ms=1000.0, watch=False, clock=clock)
        store.put("k", 1)
        assert cache.get("k") == 1
        store.put("k", 2)
        assert cache.get("k") == 1  # inside the lease: stale but bounded
        clock.t = 1.5
        assert cache.get("k") == 2  # lease expired: re-read

    def test_lease_mode_sees_deletes_after_expiry(self, store):
        clock = FakeClock()
        cache = WatchCache(store, lease_ms=1000.0, watch=False, clock=clock)
        store.put("k", 1)
        assert cache.get("k") == 1
        store.delete("k")
        clock.t = 2.0
        assert cache.get("k", default="gone") == "gone"

    @pytest.mark.parametrize("lease_ms", [-1.0, float("nan")])
    def test_negative_or_nan_lease_rejected(self, store, lease_ms):
        with pytest.raises(ValueError, match="lease_ms"):
            WatchCache(store, lease_ms=lease_ms)

    def test_zero_lease_rereads_every_time(self, store):
        cache = WatchCache(store, lease_ms=0.0, watch=False, clock=FakeClock())
        store.put("k", 1)
        assert cache.get("k") == 1
        store.put("k", 2)
        assert cache.get("k") == 2


class TestFailureFallback:
    def test_stale_serve_when_node_down(self, store):
        cache = WatchCache(store)
        store.put("k", "last-known")
        assert cache.get("k") == "last-known"
        store.fail_node(store.owner_node("k"))
        # The error event degraded the entry, so the hit path re-reads;
        # the read fails; the cache serves the last-known value.
        assert cache.get("k") == "last-known"
        assert cache.stats()["stale_served"] >= 1

    def test_recovery_revalidates_against_store(self, store):
        clock = FakeClock()
        cache = WatchCache(store, lease_ms=1000.0, clock=clock)
        store.put("k", 1)
        assert cache.get("k") == 1
        node = store.owner_node("k")
        store.fail_node(node)
        assert cache.get("k") == 1  # stale-served
        store.recover_node(node)
        store.put("k", 99)
        # The put's watch event re-arms the entry with the fresh value.
        assert cache.get("k") == 99

    def test_unknown_key_outage_propagates(self, store):
        from repro.errors import StoreUnavailableError

        cache = WatchCache(store)
        store.fail_node(store.owner_node("k"))
        with pytest.raises(StoreUnavailableError):
            cache.get("k")


class TestVersionOrdering:
    def test_late_stale_event_cannot_regress_entry(self, store):
        from repro.kvstore.watch import WatchEvent

        cache = WatchCache(store)
        store.put("k", "new")
        assert cache.get("k") == "new"
        # Simulate an event that was delayed in a queue from before the
        # read: version 0 < the entry's version, so it must be ignored.
        cache._on_event(WatchEvent("k", "put", "ancient", 0))
        assert cache.get("k") == "new"

    def test_gap_event_forces_revalidation(self, store):
        from repro.kvstore.watch import WatchEvent

        reads = []
        store._on_op = lambda op, key: reads.append(key) if op == "get" else None
        cache = WatchCache(store)
        store.put("k", 1)
        cache.get("k")
        reads.clear()
        cache.get("k")
        assert reads == []  # watched: free
        cache._on_event(WatchEvent("k", "gap"))
        cache.get("k")
        assert len(reads) == 1  # degraded entry re-validated


class TestLockFreeHit:
    """A watched, present entry is served with no lock: its hit count
    must still be exact, and a degraded entry must never be served."""

    THREADS = 8
    GETS = 2_000

    def test_hits_are_exact_under_contention(self, store):
        cache = WatchCache(store)
        store.put("k", 1)
        assert cache.get("k") == 1  # the miss that installs the entry
        wrong = []

        def reader():
            for _ in range(self.GETS):
                value = cache.get("k")
                if value != 1:
                    wrong.append(value)

        threads = [threading.Thread(target=reader) for _ in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert cache.stats()["hits"] == self.THREADS * self.GETS

    @pytest.mark.parametrize("kind", ["gap", "error"])
    def test_degraded_entry_is_read_through(self, store, kind):
        from repro.kvstore.watch import WatchEvent

        cache = WatchCache(store)
        store.put("k", 1)
        assert cache.get("k") == 1
        # The entry goes stale unnoticed: the write's event is lost, as
        # a dropped (gap) or failed (error) watch stream would lose it.
        store.put("k", 2)
        cache._entries["k"].value = 1
        assert cache.get("k") == 1
        cache._on_event(WatchEvent("k", kind))
        reads = []
        store._on_op = lambda op, key: reads.append(key) if op == "get" else None
        assert cache.get("k") == 2
        assert len(reads) == 1
        assert cache.get("k") == 2
        assert len(reads) == 1  # re-validated: watched and exact again


class TestObservability:
    def test_gauges_published_on_demand(self, store):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        cache = WatchCache(store, obs=registry)
        store.put("k", 1)
        cache.get("k")
        cache.get("k")
        cache.publish_gauges()
        snap = registry.snapshot()
        assert snap["gauges"]["kvstore.cache.store.hits"]["value"] == 1
        assert snap["gauges"]["kvstore.cache.store.misses"]["value"] == 1
        assert snap["gauges"]["kvstore.cache.store.hit_rate"]["value"] == 0.5
