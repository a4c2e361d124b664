"""Store watch subsystem: ordering, locking discipline, overflow, errors.

The two load-bearing guarantees: subscribers observe a key's events in
version order (events are enqueued under the stripe lock that serialized
the writes), and no callback ever runs while a stripe lock is held (the
writer drains queues only after unlocking), so a subscriber can re-enter
the store freely.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import pytest

from repro.errors import StoreUnavailableError
from repro.kvstore import HyperStore, WatchCache
from repro.kvstore.watch import AsyncWatchQueue, WatchEvent, WatchHub


@pytest.fixture
def store():
    return HyperStore(nodes=2)


class TestDeliveryBasics:
    def test_put_delete_events_in_version_order(self, store):
        events: list[WatchEvent] = []
        store.watch("k", events.append)
        store.put("k", "a")
        store.put("k", "b")
        store.delete("k")
        store.put("k", "c")
        assert [(e.kind, e.value) for e in events] == [
            ("put", "a"),
            ("put", "b"),
            ("delete", None),
            ("put", "c"),
        ]
        # Versions are strictly monotonic, *including* across the
        # delete/recreate boundary (the delete consumes a version).
        assert [e.version for e in events] == [1, 2, 3, 4]

    def test_cas_incr_update_fire_put_events(self, store):
        events = []
        store.watch("n", events.append)
        store.incr("n", 5)
        store.cas("n", 5, 6)
        store.update("n", lambda v: v + 1)
        assert [(e.kind, e.value) for e in events] == [
            ("put", 5),
            ("put", 6),
            ("put", 7),
        ]

    def test_prefix_watch_sees_only_matching_keys(self, store):
        events = []
        store.watch_prefix("svc$", events.append)
        store.put("svc$epoch", 1)
        store.put("other$epoch", 9)
        store.put("svc$map", {"a": 1})
        assert [e.key for e in events] == ["svc$epoch", "svc$map"]

    def test_put_many_notifies_each_key(self, store):
        events = []
        store.watch_prefix("m$", events.append)
        versions = store.put_many({"m$a": 1, "m$b": 2})
        assert versions == {"m$a": 1, "m$b": 1}
        assert sorted(e.key for e in events) == ["m$a", "m$b"]

    def test_cancel_stops_delivery_and_unregisters(self, store):
        events = []
        sub = store.watch("k", events.append)
        store.put("k", 1)
        sub.cancel()
        store.put("k", 2)
        assert [e.value for e in events] == [1]
        assert store.watch_stats()["subscriptions"] == 0

    def test_callback_exception_does_not_break_writer(self, store):
        sub = store.watch("k", lambda e: 1 / 0)
        store.put("k", 1)  # must not raise into the writer
        assert sub.callback_errors == 1
        assert sub.delivered == 0


class TestLockingDiscipline:
    def test_no_stripe_lock_held_during_delivery(self, store):
        """The lock-probing subscriber: RLock reentrancy makes an
        acquire-based probe useless on the writer thread, but the
        C-level ``_is_owned`` answers for the *calling* thread."""
        owned: list[bool] = []

        def probe(event: WatchEvent) -> None:
            for part in store._partitions.values():
                owned.extend(lock._is_owned() for lock in part._stripes)

        store.watch("k", probe)
        store.put("k", 1)
        assert owned and not any(owned)

    def test_subscriber_may_reenter_the_store(self, store):
        """Re-entrancy: a callback reading (or writing!) the store must
        not deadlock — this is what off-lock delivery buys."""
        seen = []

        def reenter(event: WatchEvent) -> None:
            if event.value == "trigger":
                store.put("other", "from-callback")
            seen.append(store.get("k"))

        store.watch("k", reenter)
        store.put("k", "trigger")
        assert seen == ["trigger"]
        assert store.get("other") == "from-callback"


class TestConcurrentOrdering:
    def test_multithreaded_writers_deliver_in_version_order(self, store):
        events: list[WatchEvent] = []
        done = threading.Event()
        store.watch("ctr", events.append)

        def hammer():
            for _ in range(200):
                store.incr("ctr")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done.set()
        versions = [e.version for e in events]
        assert versions == sorted(versions)
        assert versions == list(range(1, len(versions) + 1))
        assert versions[-1] == 800


class TestLockFreeRouting:
    """Writers route events without the hub lock.  A read-through must
    still subscribe before it reads, and a cancelled subscription must
    hear nothing once ``cancel()`` has returned."""

    WRITERS = 4
    INCRS = 50
    ROUNDS = 20

    def _hammer(self, store, key, during):
        """Run the writers while ``during()`` loops on this thread, with
        a 1 µs switch interval; return once every writer has stopped."""
        go = threading.Event()

        def writer():
            go.wait()
            for _ in range(self.INCRS):
                store.incr(key)

        threads = [threading.Thread(target=writer) for _ in range(self.WRITERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            go.set()
            during(lambda: any(thread.is_alive() for thread in threads))
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_read_through_never_misses_a_racing_write(self, store):
        """A missed event shows only if no later write repairs it, so
        the writers run in short bursts, and the caches whose first read
        raced the end of a burst are checked once it is over."""
        cache = WatchCache(store)
        for _ in range(self.ROUNDS):
            fresh = []

            def reader(running):
                while running():
                    cache.invalidate("ctr")
                    cache.get("ctr", default=0)
                    if len(fresh) == 8:
                        fresh.pop(0).close()
                    fresh.append(WatchCache(store))
                    fresh[-1].get("ctr", default=0)

            self._hammer(store, "ctr", reader)
            final = store.get("ctr")
            assert cache.get("ctr") == final
            assert [c.get("ctr") for c in fresh] == [final] * len(fresh)
            for late in fresh:
                late.close()
        assert store.get("ctr") == self.ROUNDS * self.WRITERS * self.INCRS

    def test_no_event_after_cancel_returns(self, store):
        heard = []

        def slow(event):
            time.sleep(0.0002)  # keep a callback in flight across cancel()
            heard.append(event.version)

        sub = store.watch("ctr", slow)
        at_cancel = []

        def canceller(running):
            while running() and len(heard) < 20:
                time.sleep(0.0001)
            sub.cancel()
            at_cancel.append(len(heard))

        self._hammer(store, "ctr", canceller)
        assert at_cancel and heard
        assert len(heard) == at_cancel[0]
        assert store.watch_stats()["subscriptions"] == 0


class TestOverflow:
    def test_queue_overflow_drops_oldest_and_delivers_gap(self):
        hub = WatchHub(depth=4)
        received: list[WatchEvent] = []
        sub = hub.watch("k", received.append)
        # Fill the queue without draining: enqueue() returns True only
        # for the combiner; pretend the combiner is stalled by never
        # calling drain until the end.
        kicked = []
        for i in range(10):
            if sub.enqueue(WatchEvent("k", "put", i, i + 1)):
                kicked.append(sub)
        # Combiner duty was claimed exactly once...
        assert kicked == [sub]
        sub.drain()
        # ...and the subscriber saw: a gap first (the hole precedes the
        # survivors), then the newest `depth` events.
        assert received[0].kind == "gap"
        assert [e.version for e in received[1:]] == [7, 8, 9, 10]
        assert sub.dropped == 6

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        # A zero-depth queue pops from an empty deque on its first
        # event, failing the writer; refuse it at construction instead.
        with pytest.raises(ValueError, match="depth"):
            WatchHub(depth=depth)


class TestFailureEvents:
    def test_fail_node_fires_error_to_affected_key_watch(self, store):
        events = []
        store.watch("k", events.append)
        store.fail_node(store.owner_node("k"))
        assert [e.kind for e in events] == ["error"]
        assert isinstance(events[0].error, StoreUnavailableError)

    def test_fail_node_skips_keys_on_other_nodes(self, store):
        key = "k"
        owner = store.owner_node(key)
        other = next(n for n in store.node_names() if n != owner)
        events = []
        store.watch(key, events.append)
        store.fail_node(other)
        store.recover_node(other)
        assert events == []

    def test_prefix_watch_always_hears_failures(self, store):
        # A prefix can span partitions, so node failure must reach it.
        events = []
        store.watch_prefix("svc$", events.append)
        store.fail_node(store.node_names()[0])
        assert [e.kind for e in events] == ["error"]

    def test_recover_fires_error_event_too(self, store):
        events = []
        store.watch("k", events.append)
        node = store.owner_node("k")
        store.fail_node(node)
        store.recover_node(node)
        assert [e.kind for e in events] == ["error", "error"]


class TestObservability:
    def test_delivered_and_dropped_counters(self, store):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        store.set_obs(registry)
        store.watch("k", lambda e: None)
        store.put("k", 1)
        store.put("k", 2)
        snap = registry.snapshot()
        assert snap["counters"]["kvstore.watch.delivered"] == 2
        assert "kvstore.watch.dropped" not in snap["counters"]


class TestAsyncBridge:
    def test_events_arrive_on_the_loop(self, store):
        from repro.rmi.aio import loop_runtime

        loop = loop_runtime().loop
        bridge = AsyncWatchQueue(loop)
        store.watch("k", bridge.callback)
        store.put("k", "x")
        store.put("k", "y")

        async def collect():
            return [await bridge.get(), await bridge.get()]

        events = asyncio.run_coroutine_threadsafe(collect(), loop).result(5.0)
        assert [(e.value, e.version) for e in events] == [("x", 1), ("y", 2)]

    def test_bounded_bridge_degrades_with_gap(self, store):
        from repro.rmi.aio import loop_runtime

        loop = loop_runtime().loop
        bridge = AsyncWatchQueue(loop, maxsize=2)
        store.watch("b", bridge.callback)
        for i in range(6):
            store.put("b", i)

        async def drain_all():
            out = []
            while not bridge.empty():
                out.append(await bridge.get())
            return out

        events = asyncio.run_coroutine_threadsafe(drain_all(), loop).result(5.0)
        assert bridge.dropped > 0
        assert any(e.kind == "gap" for e in events)
        # The newest event always survives displacement.
        assert events[-1].value == 5
