"""Tests for client-side load balancing (elastic stubs) and the
first-fit server-side rebalancer."""

import pytest

from repro.core.balancer import (
    BalancingMode,
    ElasticStub,
    FirstFitRebalancer,
    FractionalRedirect,
)
from repro.errors import ApplicationError, ConnectError
from repro.rmi.remote import RemoteRef
from repro.rmi.transport import Request
from tests.core.conftest import EchoService, settle


@pytest.fixture
def pool(runtime, kernel):
    p = runtime.new_pool(EchoService, max_size=8)
    settle(kernel)
    p.grow(2)
    settle(kernel)
    return p


@pytest.fixture
def stub(runtime, pool):
    return runtime.stub(pool.name)


def calls_per_member(pool, method="echo"):
    counts = {}
    for m in pool.active_members():
        stats = m.skeleton.stats.snapshot().get(method)
        counts[m.uid] = stats.calls if stats else 0
    return counts


class TestClientBalancing:
    def test_pool_appears_as_single_object(self, stub):
        assert stub.echo("hello") == "hello"

    def test_round_robin_spreads_calls(self, stub, pool):
        for i in range(40):
            stub.echo(i)
        counts = calls_per_member(pool)
        # 40 calls over 4 members: each member sees exactly 10.
        assert all(count == 10 for count in counts.values())

    def test_random_mode_reaches_all_members(self, runtime, pool):
        stub = runtime.stub(pool.name, mode=BalancingMode.RANDOM)
        for i in range(100):
            stub.echo(i)
        counts = calls_per_member(pool)
        assert all(count > 0 for count in counts.values())

    def test_bootstrap_fetches_identities_from_sentinel(self, stub, pool):
        stub.echo("first-contact")
        refs = stub.members_snapshot()
        assert len(refs) == 4
        assert refs[0].uid == pool.sentinel().uid

    def test_application_errors_propagate_not_retried(self, runtime, kernel):
        class Flaky(EchoService):
            def bad(self):
                raise ValueError("app bug")

        runtime.new_pool(Flaky)
        settle(kernel)
        stub = runtime.stub("Flaky")
        with pytest.raises(ApplicationError) as info:
            stub.bad()
        assert isinstance(info.value.cause, ValueError)


class TestClientFailover:
    def test_stub_retries_on_dead_member(self, runtime, stub, pool):
        """Paper section 4.3: if the sending fails, the stub intercepts
        the exception and retries on other objects."""
        stub.echo("warm-up")  # caches 4 identities
        victim = pool.active_members()[1]
        runtime.transport.kill(victim.endpoint_id)
        results = [stub.echo(i) for i in range(12)]
        assert results == list(range(12))

    def test_stub_survives_sentinel_death(self, runtime, stub, pool):
        stub.echo("warm-up")
        sentinel = pool.sentinel()
        runtime.transport.kill(sentinel.endpoint_id)
        pool.reap_failures()  # runtime tick would do this
        assert stub.echo("still-works") == "still-works"

    def test_stub_refreshes_membership_after_failures(self, runtime, stub, pool):
        stub.echo("warm-up")
        victim = pool.active_members()[2]
        runtime.transport.kill(victim.endpoint_id)
        pool.reap_failures()
        for i in range(10):
            stub.echo(i)
        live_refs = {m.ref() for m in pool.active_members()}
        assert set(stub.members_snapshot()) <= live_refs

    def test_total_pool_failure_propagates(self, runtime, stub, pool):
        """Only when every member fails does the exception reach the
        application."""
        stub.echo("warm-up")
        for member in pool.active_members():
            runtime.transport.kill(member.endpoint_id)
        with pytest.raises(ConnectError):
            stub.echo("doomed")

    def test_drained_member_is_skipped(self, runtime, stub, pool):
        stub.echo("warm-up")
        pool.shrink(1)  # one member begins draining
        results = [stub.echo(i) for i in range(10)]
        assert results == list(range(10))


class TestFractionalRedirect:
    def _req(self):
        return Request("obj", "m", b"")

    def test_zero_fraction_never_redirects(self):
        redirect = FractionalRedirect(0.0, [])
        assert all(redirect(self._req()) is None for _ in range(10))

    def test_full_fraction_always_redirects(self):
        target = RemoteRef("ep", "obj")
        redirect = FractionalRedirect(1.0, [target])
        assert all(redirect(self._req()) == target for _ in range(10))

    def test_half_fraction_alternates(self):
        target = RemoteRef("ep", "obj")
        redirect = FractionalRedirect(0.5, [target])
        outcomes = [redirect(self._req()) for _ in range(100)]
        redirected = sum(1 for o in outcomes if o is not None)
        assert redirected == 50

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            FractionalRedirect(1.5, [RemoteRef("ep", "obj")])

    def test_positive_fraction_needs_targets(self):
        with pytest.raises(ValueError):
            FractionalRedirect(0.5, [])


class TestFirstFitRebalancer:
    REFS = {uid: RemoteRef(f"ep-{uid}", f"obj-{uid}", uid) for uid in range(1, 6)}

    def test_balanced_pool_needs_no_plan(self):
        decision = FirstFitRebalancer().plan(
            {1: 10, 2: 10, 3: 10}, self.REFS
        )
        assert decision.overloaded == []
        assert all(d is None for d in decision.plan.values())

    def test_overloaded_member_redirects_to_underloaded(self):
        decision = FirstFitRebalancer().plan(
            {1: 30, 2: 0, 3: 0}, self.REFS
        )
        assert decision.overloaded == [1]
        directive = decision.plan[1]
        assert directive is not None
        targets = {ref.uid for ref in directive.targets}
        assert targets <= {2, 3}

    def test_first_fit_decreasing_order(self):
        """Largest excess is packed first."""
        decision = FirstFitRebalancer().plan(
            {1: 50, 2: 30, 3: 0, 4: 0}, self.REFS
        )
        assert decision.overloaded == [1, 2]

    def test_fraction_proportional_to_excess(self):
        decision = FirstFitRebalancer().plan(
            {1: 40, 2: 0}, self.REFS
        )
        directive = decision.plan[1]
        # mean = 20, excess = 20 of 40 pending -> fraction 0.5
        assert directive.fraction == pytest.approx(0.5)

    def test_single_member_no_plan(self):
        decision = FirstFitRebalancer().plan({1: 99}, self.REFS)
        assert decision.plan == {1: None}

    def test_tolerance_suppresses_small_imbalance(self):
        decision = FirstFitRebalancer(tolerance=0.5).plan(
            {1: 12, 2: 10, 3: 8}, self.REFS
        )
        assert all(d is None for d in decision.plan.values())

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            FirstFitRebalancer(tolerance=-0.1)
