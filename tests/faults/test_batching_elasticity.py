"""Batching × elasticity edges (satellite test coverage).

The batcher sits *under* the elastic retry loop, so every elasticity
event that can interrupt a wire message must still resolve per logical
call: a drain must not strand queued entries, a ``drained`` reply inside
a batch must retry that entry elsewhere, a redirect inside a batch must
re-dispatch only that entry at its target, and a dropped batch message
must send every coalesced call back through its own retry budget.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.api import ElasticObject
from repro.core.pool import MemberState
from repro.core.runtime import ElasticRuntime
from repro.faults.injector import FaultInjector
from repro.rmi.batching import RequestBatcher
from repro.rmi.future import gather
from repro.rmi.remote import Remote, Skeleton, Stub
from repro.rmi.transport import DirectTransport

from tests.faults.conftest import PingService, settle
from tests.faults.test_cpu_crash import _wait_for


def batched_stub(runtime, caller="batch-client", max_batch=8):
    return runtime.stub(
        "svc",
        caller=caller,
        batcher=RequestBatcher(
            runtime.transport, max_batch=max_batch, linger=0.0, caller=caller
        ),
    )


@pytest.fixture
def pool(kernel, repairing_runtime):
    p = repairing_runtime.new_pool(PingService, name="svc")
    settle(kernel)
    p.grow(2)
    settle(kernel)
    assert p.size() == 4
    return p


class TestDrainMidBatch:
    def test_drain_flushes_queued_entries(self, kernel, repairing_runtime, pool):
        """Entries deferred in a client batcher when a drain begins are
        flushed by the drain protocol, not stranded behind it."""
        stub = batched_stub(repairing_runtime, max_batch=32)
        futures = [stub.invoke_async("ping", i) for i in range(6)]
        assert stub.batcher.pending_count() > 0
        assert pool.shrink(1) == 1
        settle(kernel)
        # The drain hook flushed the queue; nothing pending, all good.
        assert stub.batcher.pending_count() == 0
        assert [f.result(timeout=0) for f in futures] == list(range(6))

    def test_drained_reply_retries_that_entry_elsewhere(
        self, kernel, repairing_runtime, pool
    ):
        """A member that starts draining mid-batch answers ``drained``
        for its entries; each retries elsewhere within its own budget."""
        stub = batched_stub(repairing_runtime, max_batch=32)
        # Put every member's skeleton into drain *after* targets were
        # chosen: queue the window first, then start the drain on one.
        futures = [stub.invoke_async("ping", i) for i in range(8)]
        victim = pool.active_members()[0]
        victim.skeleton.start_drain()
        assert gather(futures) == list(range(8))
        # The victim is still DRAINING from the skeleton's perspective
        # only; the pool never saw a shrink, so membership is intact.
        assert pool.size() == 4

    def test_every_member_draining_exhausts_cleanly(
        self, kernel, repairing_runtime, pool
    ):
        """When every target keeps answering ``drained`` the logical
        calls fail with their own retry budgets — not a hang."""
        from repro.errors import ConnectError

        stub = batched_stub(repairing_runtime, max_batch=32)
        futures = [stub.invoke_async("ping", i) for i in range(4)]
        for member in pool.active_members():
            member.skeleton.start_drain()
        for future in futures:
            with pytest.raises(ConnectError):
                future.result(timeout=0)


class TestRedirectMidBatch:
    def test_redirected_entry_re_dispatches_at_target(self):
        """A ``redirect`` reply inside a batch re-dispatches only that
        entry at the redirect target (plain RMI layer, no pool)."""

        class Worker(Remote):
            def __init__(self, tag):
                self.tag = tag
                self.calls = 0

            def work(self, value):
                self.calls += 1
                return (self.tag, value)

        transport = DirectTransport()
        ep_a = transport.add_endpoint("a")
        ep_b = transport.add_endpoint("b")
        skel_a = Skeleton(Worker("a"), transport, ep_a.endpoint_id)
        skel_b = Skeleton(Worker("b"), transport, ep_b.endpoint_id)
        # Endpoint A bounces every call to B (server-side balancing).
        skel_a.redirect_policy = lambda request: skel_b.ref()
        batcher = RequestBatcher(transport, max_batch=8, linger=0.0)
        stub = Stub(transport, skel_a.ref(), batcher=batcher)
        futures = [stub.invoke_async("work", i) for i in range(3)]
        assert gather(futures) == [("b", 0), ("b", 1), ("b", 2)]
        assert skel_a.impl.calls == 0
        assert skel_b.impl.calls == 3
        # The original batch plus the per-entry re-dispatches all went
        # through the batcher (re-dispatches coalesce again).
        assert batcher.stats.entries == 6


class TestDroppedBatchMessage:
    def test_each_logical_call_retries_independently(
        self, kernel, repairing_runtime, pool
    ):
        """An injected drop of the batch wire message fails every
        coalesced call with the same ConnectError; each then re-enters
        its own retry loop and succeeds at another member."""
        injector = FaultInjector(repairing_runtime).install()
        try:
            stub = batched_stub(repairing_runtime, max_batch=32)
            # Prime the member cache, then drop messages to a
            # non-sentinel member (dropping the sentinel would starve
            # membership refresh, a different failure mode).
            assert stub.ping(0) == 0
            victim = pool.active_members()[-1]
            injector.set_drop_rate(1.0, endpoint_id=victim.endpoint_id)
            # Enough entries that round-robin puts several in the
            # victim's batch; all must still resolve correctly.
            futures = [stub.invoke_async("ping", i) for i in range(12)]
            assert gather(futures) == list(range(12))
            # One coalesced wire message to the victim was dropped (it
            # counts once however many logical calls rode it).
            assert injector.stats.dropped >= 1
        finally:
            injector.uninstall()

    def test_drop_consumes_exactly_one_attempt_per_call(
        self, kernel, repairing_runtime, pool
    ):
        """The batched send is each call's *first* attempt: after one
        dropped batch the fallback succeeds, so attempts per logical
        call is exactly 2 — budget spent once, not per batch."""
        from repro.obs import Observability

        obs = Observability(clock=kernel.clock)
        injector = FaultInjector(repairing_runtime).install()
        try:
            stub = repairing_runtime.stub(
                "svc",
                caller="batch-client",
                batcher=RequestBatcher(
                    repairing_runtime.transport,
                    max_batch=32,
                    linger=0.0,
                    caller="batch-client",
                ),
            )
            assert stub.ping(0) == 0
            stub._obs = obs
            victim = pool.active_members()[-1]
            injector.set_drop_rate(1.0, endpoint_id=victim.endpoint_id)
            futures = [stub.invoke_async("ping", i) for i in range(8)]
            assert gather(futures) == list(range(8))
            calls = [e for e in obs.tracer.events() if e.kind == "call"]
            assert len(calls) == 8
            assert all(e.get("ok") for e in calls)
            # Calls that hit the victim's dropped batch used exactly one
            # extra attempt; the rest used one.
            assert set(e.get("attempts") for e in calls) <= {1, 2}
            assert any(e.get("attempts") == 2 for e in calls)
        finally:
            injector.uninstall()


class _Who(ElasticObject):
    def __init__(self):
        super().__init__()
        self.set_min_pool_size(2)
        self.set_max_pool_size(32)

    def who(self):
        return self._ermi_ctx.member.uid


def _grow_one(pool):
    """``grow(1)``, then wait until the new member serves.  Activation
    runs on a timer thread, and ``shrink`` only ever picks an ACTIVE
    victim: the wait is on that condition, not on who gets the GIL."""
    known = set(pool.members)
    assert pool.grow(1) == 1
    (uid,) = set(pool.members) - known
    assert _wait_for(lambda: pool.members[uid].state is MemberState.ACTIVE)


def _not_terminated(pool):
    return [
        m for m in list(pool.members.values())
        if m.state is not MemberState.TERMINATED
    ]


class TestChurnDoesNotGrowTheBatcher:
    """A client batcher under a resizing pool keeps queues for the
    members that are there, not for every member there ever was."""

    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_200_resizes_under_a_gathered_load(self, transport):
        runtime = ElasticRuntime.local(transport=transport, seed=1)
        try:
            pool = runtime.new_pool(_Who, name="svc", min_size=4)
            assert _wait_for(lambda: len(pool.active_members()) == 4)
            batcher = RequestBatcher(runtime.transport, max_batch=32, linger=0.0)
            stub = runtime.stub("svc", batcher=batcher)
            agent = runtime.record("svc").sentinel_agent
            done = threading.Event()
            problems = []

            def churn():
                try:
                    for _ in range(200):
                        _grow_one(pool)
                        assert pool.shrink(1) == 1
                        agent.tick()
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    problems.append(exc)
                done.set()

            thread = threading.Thread(target=churn)
            thread.start()
            calls = failed = hwm = 0
            while not done.is_set():
                futures = [stub.invoke_async("who") for _ in range(16)]
                for future in futures:
                    calls += 1
                    failed += future.exception(timeout=30.0) is not None
                hwm = max(hwm, len(batcher._queues))
            thread.join(timeout=30.0)
            assert not thread.is_alive() and not problems
            assert calls >= 16 and failed == 0
            # Let the last drains finish, then one more resize: the new
            # member's first call makes its queue and prunes the map.
            assert _wait_for(lambda: len(_not_terminated(pool)) == 4)
            assert pool.grow(1) == 1
            assert _wait_for(lambda: len(pool.active_members()) == 5)
            uids = set(gather(
                [stub.invoke_async("who") for _ in range(16)], timeout=30.0
            ))
            assert len(uids) == 5
            assert len(batcher._queues) == 5
            assert hwm <= 12
        finally:
            runtime.shutdown()
