"""The watched epoch path: zero store reads steady-state, push convergence.

PR 8's tentpole: `ElasticStub._read_epoch` used to issue one store
``get`` per invocation.  With the runtime's WatchCache the epoch is a
push-invalidated local value — steady-state calls read the store zero
times, and a membership change still reaches the stub immediately
because the epoch bump is pushed into the cache, not discovered by the
next poll.
"""

from __future__ import annotations

import pytest

from tests.core.conftest import EchoService, settle


@pytest.fixture
def pool(runtime, kernel):
    p = runtime.new_pool(EchoService, name="pool")
    settle(kernel)
    return p


def epoch_reads(store, counts, name="pool"):
    return counts.get(("get", f"{name}$epoch"), 0)


@pytest.fixture
def op_counts(runtime):
    counts: dict[tuple[str, str], int] = {}

    def on_op(op, key):
        counts[(op, key)] = counts.get((op, key), 0) + 1

    runtime.store._on_op = on_op
    return counts


class TestSteadyState:
    def test_zero_epoch_reads_per_call(self, runtime, pool, op_counts):
        stub = runtime.stub("pool")
        stub.echo("warm")  # first call: one read-through miss
        op_counts.clear()
        for i in range(50):
            assert stub.echo(i) == i
        assert epoch_reads(runtime.store, op_counts) == 0

    def test_stubs_share_one_cache_subscription(self, runtime, pool):
        before = runtime.store.watch_stats()["subscriptions"]
        stubs = [runtime.stub("pool") for _ in range(10)]
        for s in stubs:
            s.echo("x")
        after = runtime.store.watch_stats()["subscriptions"]
        # One watched key (the epoch), regardless of stub count.
        assert after - before <= 1


class TestConvergence:
    def test_membership_change_is_pushed_to_cached_stub(
        self, runtime, kernel, pool, op_counts
    ):
        stub = runtime.stub("pool")
        stub.echo("warm")
        members_before = len(pool.active_members())
        pool.grow(2)
        settle(kernel)
        assert len(pool.active_members()) == members_before + 2
        op_counts.clear()
        # The epoch bump was pushed into the cache: the next call sees
        # the new epoch without any epoch-key store read, refreshes its
        # member set, and round-robins over the grown pool.
        for i in range(2 * (members_before + 2)):
            assert stub.echo(i) == i
        assert epoch_reads(runtime.store, op_counts) == 0
        served = set()
        for m in pool.active_members():
            stats = m.skeleton.stats.snapshot().get("echo")
            if stats and stats.calls:
                served.add(m.uid)
        assert len(served) == members_before + 2

    def test_field_reads_go_through_cache(self, runtime, kernel, pool, op_counts):
        stub = runtime.stub("pool")
        stub.count()  # update: always a store round-trip (atomic RMW)
        op_counts.clear()
        # Repeated reads of the elastic field from pool members hit the
        # shared cache, not the store.
        for _ in range(20):
            stub.echo("x")
        assert op_counts.get(("get", "EchoService$total_calls"), 0) == 0


class TestSentinelCoalescing:
    def test_identical_ticks_skip_map_puts_and_broadcasts(
        self, runtime, kernel, op_counts
    ):
        runtime.new_sharded_pool(EchoService, name="svc", shards=2)
        settle(kernel)
        agent = runtime.record("svc/shard0").sentinel_agent
        agent.tick()
        first_puts = op_counts.get(("put", "svc$shardmap/0"), 0)
        assert first_puts == 1
        agent.tick()  # nothing changed: the put must be skipped
        assert op_counts.get(("put", "svc$shardmap/0"), 0) == first_puts
        assert agent.skipped_puts == 1
        assert agent.skipped_broadcasts >= 1
        assert agent.broadcasts == 2  # tick cycles still counted

    def test_changed_state_still_published(self, runtime, kernel, op_counts):
        pool = runtime.new_sharded_pool(EchoService, name="chg", shards=2)
        settle(kernel)
        agent = runtime.record("chg/shard0").sentinel_agent
        agent.tick()
        pool.shards[0].grow(1)
        settle(kernel)
        agent.tick()
        entry = runtime.store.get("chg$shardmap/0")
        assert entry["size"] == 3
        assert agent.skipped_puts == 0
