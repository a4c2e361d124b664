"""Capacity that arrives serves at once (live: threads, wall clock).

The scale-up critical path ends at the first call the new member
serves.  These tests pin its last two steps — the stub's membership
refresh and where the refreshing call goes — as exact counts, on every
live way a call can travel: a blocking hand-off on the threaded
transport, the asyncio transport's sync bridge, and a batched window on
the event loop.
"""

from __future__ import annotations

import pytest

from repro.core.api import ElasticObject
from repro.core.pool import MemberState
from repro.core.runtime import ElasticRuntime
from repro.rmi.batching import RequestBatcher
from repro.rmi.fastpath import is_zero_copy, marshal_call
from repro.rmi.future import gather
from repro.rmi.remote import RemoteRef, Stub
from repro.rmi.transport import Request
from tests.core.conftest import EchoService, settle
from tests.rmi.test_transport import _wait_for

WAIT_S = 30.0


class _Who(ElasticObject):
    def __init__(self):
        super().__init__()
        self.set_min_pool_size(2)
        self.set_max_pool_size(16)

    def who(self):
        return self._ermi_ctx.member.uid


@pytest.fixture(
    params=[("threaded", False), ("asyncio", False), ("asyncio", True)],
    ids=["threaded", "asyncio", "asyncio-batched"],
)
def live(request):
    """A 4-member ``who()`` pool and a stub that has made first contact."""
    transport, batched = request.param
    runtime = ElasticRuntime.local(transport=transport, seed=1)
    try:
        pool = runtime.new_pool(_Who, name="svc", min_size=4)
        assert _wait_for(lambda: pool.size() == 4, WAIT_S)
        batcher = (
            RequestBatcher(runtime.transport, max_batch=32, linger=0.0)
            if batched else None
        )
        stub = runtime.stub("svc", batcher=batcher)
        assert sorted(stub.who() for _ in range(4)) == [1, 2, 3, 4]
        yield runtime, pool, stub
    finally:
        runtime.shutdown()


def grow_and_wait(runtime, pool, count) -> list[int]:
    """``grow(count)``, then wait until every new member is ACTIVE *and*
    announced (one epoch bump per activation).  Returns the new uids."""
    known = set(pool.members)
    key = pool.membership_epoch_key()
    epoch = runtime.store.get(key, default=0)
    assert pool.grow(count) == count
    new = sorted(set(pool.members) - known)
    assert _wait_for(
        lambda: all(
            pool.members[uid].state is MemberState.ACTIVE for uid in new
        )
        and runtime.store.get(key, default=0) == epoch + count,
        WAIT_S,
    )
    return new


class TestFirstServedCall:
    def test_the_refreshing_call_is_served_by_the_new_member(self, live):
        runtime, pool, stub = live
        for cycle in range(5):
            # Leave the cursor somewhere else every time round.
            for _ in range(cycle):
                stub.who()
            (uid,) = grow_and_wait(runtime, pool, 1)
            member = pool.members[uid]
            # The count starts at the call that refreshes (the new ref
            # enters the stub's members) and ends at the first reply
            # from the new member.
            calls = 0
            for _ in range(64):
                served_by = stub.who()
                if calls or member.ref() in stub.members_snapshot():
                    calls += 1
                if served_by == uid:
                    break
            assert calls == 1
            assert pool.shrink(1) == 1
            assert _wait_for(
                lambda: member.state is MemberState.TERMINATED, WAIT_S
            )

    def test_three_new_members_serve_the_next_three_calls(self, live):
        runtime, pool, stub = live
        stub.who()  # cursor off zero
        new = grow_and_wait(runtime, pool, 3)
        assert [stub.who() for _ in range(3)] == new
        # Then the rotation goes on through the members that were there.
        assert sorted(stub.who() for _ in range(4)) == [1, 2, 3, 4]

    def test_a_gathered_window_starts_at_the_new_members(self, live):
        runtime, pool, stub = live
        stub.who()  # cursor off zero
        new = grow_and_wait(runtime, pool, 3)
        replies = gather(
            [stub.invoke_async("who") for _ in range(7)], timeout=WAIT_S
        )
        assert sorted(replies) == [1, 2, 3, 4] + new
        if getattr(runtime.transport, "asynchronous", False):
            # On the event loop targets are picked at submission, in this
            # thread and in order (the threaded transport's async calls
            # pick theirs on pool threads, in whatever order those run).
            assert replies[:3] == new


class TestIdentityFetch:
    """A membership refresh pickles nothing, in either direction."""

    @pytest.fixture
    def pool(self, runtime, kernel):
        p = runtime.new_pool(EchoService)
        settle(kernel)
        return p

    def test_request_and_reply_ride_zero_copy(self, pool):
        payload = marshal_call((), {})
        assert is_zero_copy(payload)
        sentinel = pool.sentinel().skeleton
        response = sentinel.handle(
            Request(
                object_id=sentinel.object_id,
                method="ermi_member_identities",
                payload=payload,
                caller="test",
            )
        )
        assert response.kind == "result"
        assert is_zero_copy(response.payload)
        refs = response.payload.value
        assert type(refs) is tuple
        assert all(type(ref) is RemoteRef for ref in refs)
        assert [ref.uid for ref in refs] == [1, 2]

    def test_a_stub_cannot_change_what_the_next_fetch_returns(
        self, pool, runtime, kernel
    ):
        """The reply is shared, not copied, so it must be immutable and
        the elastic stub must rotate over a list of its own."""
        sentinel = Stub(runtime.transport, pool.sentinel().ref())
        first = sentinel.ermi_member_identities()
        with pytest.raises(TypeError):
            first[0] = None
        stub = runtime.stub(pool.name)
        stub.echo("first contact")
        stub._members.clear()
        stub._members.append("junk")
        assert sentinel.ermi_member_identities() == first
        assert pool.member_identities() == first
        other = runtime.stub(pool.name, caller="other")
        other.echo("first contact")
        assert other.members_snapshot() == list(first)
