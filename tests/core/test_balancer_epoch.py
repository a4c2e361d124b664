"""Epoch-based membership caching in the elastic stub.

The pool bumps a ``{name}$epoch`` key in the shared store on every
membership change (activate, drain, terminate); the stub caches member
identities against that epoch, so the common invocation path is
lock-free and identities are re-read only when the pool actually
changed — no count-based periodic rescans.
"""

from __future__ import annotations

import pytest

from repro.core.balancer import BalancingMode, ElasticStub
from repro.errors import StoreError
from repro.rmi.remote import Remote, Skeleton
from repro.rmi.transport import DirectTransport
from tests.core.conftest import EchoService, settle


def rotation(stub):
    """The members one call of ``stub`` would try, in order: its
    primary, then the failover sequence."""
    members, start = stub._targets()
    return members[start:] + members[:start]


class TestEpochWiring:
    """Integration: the pool bumps the epoch, the runtime wires it in."""

    def test_epoch_bumped_on_grow(self, runtime, kernel):
        pool = runtime.new_pool(EchoService, max_size=8)
        settle(kernel)
        key = pool.membership_epoch_key()
        before = runtime.store.get(key, default=0)
        pool.grow(2)
        settle(kernel)
        assert runtime.store.get(key, default=0) > before

    def test_epoch_bumped_on_shrink(self, runtime, kernel):
        pool = runtime.new_pool(EchoService, max_size=8)
        settle(kernel)
        pool.grow(2)
        settle(kernel)
        key = pool.membership_epoch_key()
        before = runtime.store.get(key, default=0)
        pool.shrink(1)
        settle(kernel)
        assert runtime.store.get(key, default=0) > before

    def test_stub_sees_growth_without_periodic_rescan(self, runtime, kernel):
        pool = runtime.new_pool(EchoService, max_size=8)
        settle(kernel)
        stub = runtime.stub(pool.name)
        stub.echo("warm-up")
        assert len(stub.members_snapshot()) == 2
        pool.grow(2)
        settle(kernel)
        # One call suffices — far fewer than any count-based refresh
        # interval — because the epoch moved.
        stub.echo("after-grow")
        assert len(stub.members_snapshot()) == 4

    def test_stub_spreads_calls_over_new_members(self, runtime, kernel):
        pool = runtime.new_pool(EchoService, max_size=8)
        settle(kernel)
        stub = runtime.stub(pool.name)
        stub.echo("warm-up")
        pool.grow(2)
        settle(kernel)
        for i in range(8):
            stub.echo(i)
        counts = {
            m.uid: (m.skeleton.stats.snapshot().get("echo") or None)
            for m in pool.active_members()
        }
        assert len(counts) == 4
        assert all(stat is not None and stat.calls > 0
                   for stat in counts.values())


class _Worker(Remote):
    def echo(self, value):
        return value


class _FakeSentinel(Remote):
    """Hands out a controllable member list, counting fetches."""

    def __init__(self, members):
        self.members = members
        self.fetches = 0

    def ermi_member_identities(self):
        self.fetches += 1
        return list(self.members)


@pytest.fixture
def rig():
    """Three workers, a fake sentinel, and an epoch the test controls."""
    transport = DirectTransport()
    members = []
    for i in range(3):
        ep = transport.add_endpoint(f"worker-{i}")
        members.append(Skeleton(_Worker(), transport, ep.endpoint_id).ref())
    sentinel = _FakeSentinel(members)
    sep = transport.add_endpoint("sentinel")
    sentinel_ref = Skeleton(sentinel, transport, sep.endpoint_id).ref()
    state = {"epoch": 1, "fail": False}

    def epoch_source():
        if state["fail"]:
            raise StoreError("store outage")
        if state.get("broken"):
            raise TypeError("miswired epoch source")
        return state["epoch"]

    stub = ElasticStub(
        transport,
        lambda: sentinel_ref,
        epoch_source=epoch_source,
    )
    return transport, sentinel, members, state, stub


class TestEpochRefresh:
    def test_identities_fetched_once_per_epoch(self, rig):
        _, sentinel, _, state, stub = rig
        for i in range(10):
            assert stub.echo(i) == i
        assert sentinel.fetches == 1  # first contact only
        state["epoch"] += 1
        stub.echo("post-change")
        assert sentinel.fetches == 2

    def test_epoch_source_outage_serves_cached_members(self, rig):
        _, sentinel, _, state, stub = rig
        stub.echo("warm-up")
        state["fail"] = True
        for i in range(5):
            assert stub.echo(i) == i
        assert sentinel.fetches == 1  # no refresh attempted during outage

    def test_epoch_source_programming_error_propagates(self, rig):
        """Only store/transport failures degrade to the cached epoch; a
        miswired epoch source is a bug and must surface, not silently
        pin the stub to a stale membership forever."""
        _, _, _, state, stub = rig
        stub.echo("warm-up")
        state["broken"] = True
        with pytest.raises(TypeError):
            stub.echo("boom")

    def test_dead_member_failover_still_works(self, rig):
        transport, _, members, _, stub = rig
        stub.echo("warm-up")
        transport.kill(members[1].endpoint_id)
        results = [stub.echo(i) for i in range(9)]
        assert results == list(range(9))
        assert members[1] not in stub.members_snapshot()


class TestTargetOrdering:
    def test_targets_rotate_with_failover_order(self, rig):
        """The primary comes first, then the remaining members in
        rotation order — the failover sequence."""
        _, _, members, _, stub = rig
        stub._refresh_members(epoch=1)
        assert rotation(stub) == members
        assert rotation(stub) == members[1:] + members[:1]
        assert rotation(stub) == members[2:] + members[:2]
        assert rotation(stub) == members  # wraps around

    def test_cursor_resets_when_discarded_member_reappears(self, rig):
        """The satellite fix: a discarded ref re-appearing on refresh
        means the rotation positions shifted, so the cursor restarts
        instead of skewing toward the members after the revived slot."""
        _, _, members, state, stub = rig
        stub._refresh_members(epoch=1)
        rotation(stub)  # cursor now at 1
        stub._discard(members[1])
        state["epoch"] += 1  # revival: sentinel still lists members[1]
        targets = rotation(stub)
        assert targets[0] == members[0]  # restarted, not members[1]
        assert targets == members

    def test_cursor_continues_across_benign_refreshes(self, rig):
        """Without a discarded-member revival the cursor must NOT reset:
        a refresh that changes nothing keeps round-robin balanced."""
        _, _, members, state, stub = rig
        stub._refresh_members(epoch=1)
        rotation(stub)  # cursor now at 1
        state["epoch"] += 1
        targets = rotation(stub)
        assert targets[0] == members[1]

    def test_discarded_member_excluded_until_refresh(self, rig):
        _, _, members, _, stub = rig
        stub._refresh_members(epoch=1)
        stub._discard(members[2])
        snapshot = stub.members_snapshot()
        assert members[2] not in snapshot and len(snapshot) == 2


def _add_workers(transport, sentinel, count):
    """Export ``count`` more workers and list them at the sentinel's
    tail (the pool lists members by uid, so new ones come last).  The
    rig's ``members`` *is* the sentinel's list, so tests copy it first."""
    added = []
    for _ in range(count):
        ep = transport.add_endpoint(f"worker-{len(sentinel.members)}")
        ref = Skeleton(_Worker(), transport, ep.endpoint_id).ref()
        sentinel.members.append(ref)
        added.append(ref)
    return added


class TestNewCapacityHeadsTheRotation:
    """Capacity that arrives serves at once: a refresh that brings refs
    the stub never held restarts the cursor at the first of them."""

    def test_refreshing_call_targets_the_new_member(self, rig):
        transport, sentinel, members, state, stub = rig
        old = list(members)
        stub._refresh_members(epoch=1)
        rotation(stub)  # cursor now at 1
        (new,) = _add_workers(transport, sentinel, 1)
        state["epoch"] += 1
        everyone = old + [new]
        # The call that notices the epoch move is the one that refreshes,
        # and its own primary target is the new member ...
        assert rotation(stub) == [new] + old
        # ... and the rotation continues from it.
        assert rotation(stub) == everyone
        assert rotation(stub) == everyone[1:] + everyone[:1]
        assert sentinel.fetches == 2

    def test_three_new_members_are_the_next_three_primaries(self, rig):
        transport, sentinel, members, state, stub = rig
        old = list(members)
        stub._refresh_members(epoch=1)
        rotation(stub)
        rotation(stub)  # cursor now at 2
        added = _add_workers(transport, sentinel, 3)
        state["epoch"] += 1
        primaries = [rotation(stub)[0] for _ in range(6)]
        assert primaries == added + old

    def test_new_member_beside_a_removed_one(self, rig):
        """The cursor goes to the new ref's index in the *installed*
        list, whatever else the refresh dropped."""
        transport, sentinel, members, state, stub = rig
        stub._refresh_members(epoch=1)
        kept = members[1:]
        del sentinel.members[0]
        (new,) = _add_workers(transport, sentinel, 1)
        state["epoch"] += 1
        assert rotation(stub) == [new] + kept

    def test_refresh_that_only_removes_keeps_the_cursor(self, rig):
        _, sentinel, members, state, stub = rig
        stub._refresh_members(epoch=1)
        rotation(stub)  # cursor now at 1
        second = members[1]
        del sentinel.members[2]
        state["epoch"] += 1
        assert rotation(stub)[0] == second

    def test_first_contact_starts_at_zero(self, rig):
        """Every ref is new to a stub that has held none: that is not
        arriving capacity, and the rotation starts where it always did."""
        _, _, members, _, stub = rig
        assert rotation(stub) == members

    def test_all_failed_recovery_shares_the_rule(self, rig):
        """The refresh after every cached member failed goes through the
        same method: a replacement the stub never held heads the
        rotation, where revived refs alone would restart it at 0."""
        transport, sentinel, members, _, stub = rig
        first = members[0]
        stub._refresh_members(epoch=1)
        rotation(stub)
        for ref in list(members):
            stub._discard(ref)
        assert stub.members_snapshot() == []
        del sentinel.members[1:]
        (new,) = _add_workers(transport, sentinel, 1)
        stub._refresh_members()
        assert rotation(stub) == [new, first]

    def test_random_mode_draws_as_before(self, rig):
        """Random spreading never waits a turn — the new member is in
        the draw from the refresh on — so the draws are exactly what the
        same seed gives over the same list sizes, cursor rule or not."""
        import random

        transport, sentinel, members, state, epoch_stub = rig
        old = list(members)
        stub = ElasticStub(
            transport,
            epoch_stub._resolve_sentinel,
            mode=BalancingMode.RANDOM,
            rng=random.Random(7),
            epoch_source=lambda: state["epoch"],
        )
        shadow = random.Random(7)
        assert rotation(stub)[0] == old[shadow.randrange(3)]
        (new,) = _add_workers(transport, sentinel, 1)
        state["epoch"] += 1
        everyone = old + [new]
        for _ in range(8):
            assert rotation(stub)[0] == everyone[shadow.randrange(4)]


class TestDiscardSetLifecycle:
    """Satellite bugfix: during a sentinel outage the stale-cache
    fallback used to keep every discarded ref forever — the set grew
    without bound across epochs, and a member that recovered under the
    same identity stayed out of the rotation until a refresh finally
    succeeded."""

    def test_recovered_member_rejoins_rotation_during_sentinel_outage(
        self, rig
    ):
        transport, sentinel, members, state, stub = rig
        stub.echo("warm-up")
        # Member 1 dies; the per-member retry discards it.
        transport.kill(members[1].endpoint_id)
        assert stub.echo("x") == "x"
        assert members[1] not in stub.members_snapshot()
        assert len(stub._discarded) == 1
        # The sentinel goes down too, then member 1 recovers and the
        # epoch advances (its re-activation bumped it).  The refresh
        # fails — the stub must serve the stale cache — but the epoch
        # move means the discard set is obsolete: member 1 returns to
        # the candidate list.
        transport.kill(stub._resolve_sentinel().endpoint_id)
        transport.revive(members[1].endpoint_id)
        state["epoch"] += 1
        assert stub.echo("y") == "y"
        assert stub._discarded == set()
        assert members[1] in stub.members_snapshot()
        # And it genuinely serves again: a full rotation reaches it.
        for i in range(6):
            assert stub.echo(i) == i
        assert sentinel.fetches == 1  # never refreshed during the outage

    def test_discard_set_cleared_once_per_epoch_advance(self, rig):
        """The revival runs once per epoch move, not once per call —
        repeated stale-path calls with an unchanged discard set must
        not keep resetting the round-robin cursor."""
        transport, _, members, state, stub = rig
        stub.echo("warm-up")
        transport.kill(stub._resolve_sentinel().endpoint_id)
        state["epoch"] += 1
        assert stub.echo("a") == "a"  # stale path, nothing discarded
        first = rotation(stub)[0]
        second = rotation(stub)[0]
        assert first != second  # cursor still advancing

    def test_still_dead_member_is_rediscarded_after_revival(self, rig):
        """Reviving the discard set is a probe, not a promise: a ref
        that is still dead costs one failed attempt and is discarded
        again, exactly the normal failover path."""
        transport, _, members, state, stub = rig
        stub.echo("warm-up")
        transport.kill(members[1].endpoint_id)
        assert stub.echo("x") == "x"
        transport.kill(stub._resolve_sentinel().endpoint_id)
        state["epoch"] += 1  # epoch moved, but member 1 is still dead
        results = [stub.echo(i) for i in range(6)]
        assert results == list(range(6))
        assert members[1] not in stub.members_snapshot()
