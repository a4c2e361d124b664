"""Tests for elastic object pool lifecycle: instantiation, growth,
graceful shrink, sentinel election, and membership bookkeeping."""

import pytest

from repro.core.pool import MemberState
from repro.errors import PoolShutdownError
from tests.core.conftest import EchoService, settle
from tests.faults.test_drain_race import ReleaseCounter


@pytest.fixture
def pool(runtime, kernel, dial):
    p = runtime.new_pool(EchoService, utilization_factory=dial.source)
    settle(kernel)
    return p


class TestInstantiation:
    def test_starts_with_min_pool_size(self, pool):
        assert pool.size() == 2

    def test_each_member_on_distinct_slice(self, pool):
        slices = [m.slice.slice_id for m in pool.active_members()]
        assert len(set(slices)) == len(slices)

    def test_each_member_on_distinct_endpoint(self, pool):
        """One JVM per slice, never two (paper section 4.2)."""
        endpoints = [m.endpoint_id for m in pool.active_members()]
        assert len(set(endpoints)) == len(endpoints)

    def test_partial_grant_creates_fewer_members(self, kernel):
        """If only l < k slices are available, l objects are created."""
        from repro.cluster.provisioner import InstantProvisioner
        from repro.core.runtime import ElasticRuntime

        rt = ElasticRuntime.simulated(
            kernel, nodes=1, slices_per_node=3,
            provisioner=InstantProvisioner(),
        )
        # 3 slices total, 1 taken by the shared store -> 2 left.
        class Wide(EchoService):
            def __init__(self):
                super().__init__()
                self.set_min_pool_size(5)
                self.set_max_pool_size(10)

        pool = rt.new_pool(Wide)
        settle(kernel)
        assert pool.size() == 2

    def test_store_records_member_identities(self, pool, runtime):
        """The runtime stores skeleton uids/identities in the shared
        store, as the paper stores them in HyperDex."""
        members = runtime.store.get(f"{pool.name}$members")
        assert sorted(members) == [m.uid for m in pool.active_members()]

    def test_members_attached_to_context(self, pool):
        for member in pool.active_members():
            assert member.instance._ermi_ctx is not None
            assert member.instance.get_pool_size() == 2


class TestGrowth:
    def test_grow_adds_members(self, pool, kernel):
        added = pool.grow(2)
        settle(kernel)
        assert added == 2
        assert pool.size() == 4

    def test_grow_zero_is_noop(self, pool):
        assert pool.grow(0) == 0

    def test_uids_monotonically_increase(self, pool, kernel):
        pool.grow(1)
        settle(kernel)
        uids = [m.uid for m in pool.active_members()]
        assert uids == sorted(uids)
        assert len(set(uids)) == len(uids)

    def test_provisioning_records_created(self, pool, kernel):
        pool.grow(1)
        settle(kernel)
        ups = [r for r in pool.provisioning_records if r.direction == "up"]
        assert len(ups) == 3  # 2 initial + 1 grown
        assert all(r.latency >= 0 for r in ups)

    def test_scaling_events_recorded(self, pool, kernel):
        pool.grow(1, reason="test-reason")
        settle(kernel)
        event = pool.scaling_events[-1]
        assert event.decision == 1
        assert event.granted == 1
        assert event.reason == "test-reason"


class TestShrink:
    def test_shrink_removes_members(self, pool, kernel):
        pool.grow(2)
        settle(kernel)
        removed = pool.shrink(2)
        settle(kernel, seconds=30.0)
        assert removed == 2
        assert pool.size() == 2

    def test_shrink_never_goes_below_min(self, pool, kernel):
        assert pool.shrink(5) == 0
        settle(kernel)
        assert pool.size() == 2

    def test_shrink_spares_the_sentinel(self, pool, kernel):
        pool.grow(2)
        settle(kernel)
        sentinel_uid = pool.sentinel().uid
        pool.shrink(2)
        settle(kernel, seconds=30.0)
        assert pool.sentinel().uid == sentinel_uid

    def test_removed_slice_returns_to_cluster(self, pool, kernel, runtime):
        free_before = runtime.master.free_slice_count()
        pool.grow(1)
        settle(kernel)
        pool.shrink(1)
        settle(kernel, seconds=30.0)
        assert runtime.master.free_slice_count() == free_before

    def test_draining_member_redirects_new_calls(self, pool, kernel, runtime):
        """Step one of the removal protocol: once redirection starts, the
        departing skeleton accepts no new invocations."""
        pool.grow(1)
        settle(kernel)
        victims = [
            m for m in pool.active_members() if m is not pool.sentinel()
        ]
        victim = max(victims, key=lambda m: m.uid)
        pool.shrink(1)
        # Member is DRAINING until the drain delay elapses.
        assert victim.state is MemberState.DRAINING
        from repro.errors import MemberDrainedError
        from repro.rmi.remote import Stub

        stub = Stub(runtime.transport, victim.ref())
        with pytest.raises(MemberDrainedError):
            stub.echo("x")

    def test_shrink_records_down_provisioning(self, pool, kernel):
        pool.grow(1)
        settle(kernel)
        pool.shrink(1)
        settle(kernel, seconds=30.0)
        downs = [r for r in pool.provisioning_records if r.direction == "down"]
        assert len(downs) == 1


class TestSentinel:
    def test_sentinel_is_lowest_uid(self, pool):
        uids = [m.uid for m in pool.active_members()]
        assert pool.sentinel().uid == min(uids)

    def test_member_identities_sentinel_first(self, pool, kernel):
        pool.grow(1)
        settle(kernel)
        refs = pool.member_identities()
        assert refs[0].uid == pool.sentinel().uid
        assert len(refs) == 3

    def test_sentinel_reelected_after_termination(self, pool, kernel):
        old = pool.sentinel()
        pool._terminate(old)
        new = pool.sentinel()
        assert new is not None
        assert new.uid > old.uid


class TestWindows:
    def test_roll_window_aggregates_method_stats(self, pool, runtime, kernel):
        stub = runtime.stub(pool.name)
        for i in range(10):
            stub.echo(i)
        pool.roll_window()
        stats = pool.method_call_stats()
        assert stats["echo"].calls == 10
        assert stats["echo"].rate == pytest.approx(10 / 60.0)

    def test_roll_window_resets_counts(self, pool, runtime):
        stub = runtime.stub(pool.name)
        stub.echo(1)
        pool.roll_window()
        pool.roll_window()
        assert pool.method_call_stats().get("echo") is None or (
            pool.method_call_stats()["echo"].calls == 0
        )

    def test_utilization_window_average(self, pool, dial, kernel):
        dial.cpu = 80.0
        pool.sample_utilization()
        pool.sample_utilization()
        assert pool.avg_cpu_usage() == pytest.approx(80.0)
        pool.roll_window()
        assert pool.avg_cpu_usage() == pytest.approx(80.0)  # cached window

    def test_pending_by_member_initially_zero(self, pool):
        assert set(pool.pending_by_member().values()) == {0}


class TestShutdown:
    def test_shutdown_releases_everything(self, pool, runtime, kernel):
        pool.shutdown()
        assert pool.size() == 0
        # Only the runtime's store slice remains allocated.
        assert runtime.master.allocated_slices() == 1

    def test_operations_after_shutdown_raise(self, pool):
        pool.shutdown()
        with pytest.raises(PoolShutdownError):
            pool.grow(1)
        with pytest.raises(PoolShutdownError):
            pool.shrink(1)

    def test_double_shutdown_is_noop(self, pool):
        pool.shutdown()
        pool.shutdown()


class _Visits(dict):
    """A member map that counts the members a scan walks."""

    visited = 0

    def values(self):
        for member in super().values():
            self.visited += 1
            yield member


class TestLiveSet:
    """``pool.members`` is the record of every member there ever was;
    the scans walk the members alive."""

    CYCLES = 300

    def churn(self, pool, kernel):
        # Steps far shorter than the burst interval: no control tick
        # fires, so every resize below is this test's own.
        for _ in range(self.CYCLES):
            assert pool.grow(1) == 1
            settle(kernel, 0.01)
            assert pool.shrink(1) == 1
            settle(kernel, 0.01)

    def test_scans_visit_the_members_alive(self, pool, kernel, runtime):
        releases = ReleaseCounter(runtime.master)
        self.churn(pool, kernel)
        alive = [
            m for m in pool.members.values()
            if m.state is not MemberState.TERMINATED
        ]
        assert len(alive) == 2
        # The record keeps everyone, with what reports read from it ...
        assert len(pool.members) == self.CYCLES + 2
        gone = [m for m in pool.members.values() if m not in alive]
        assert all(
            m.skeleton is not None and m.active_at is not None
            and m.requested_at <= m.active_at <= m.terminated_at
            for m in gone
        )
        # ... one release per member gone (the cluster hands the same
        # slices out again and again) ...
        assert sum(releases.calls.values()) == len(gone)
        assert runtime.master.allocated_slices() == 1 + len(alive)
        # ... and the live set holds the two that are left.
        assert list(pool._live.values()) == alive
        pool.members = _Visits(pool.members)
        pool._live = _Visits(pool._live)
        assert pool.size() == 2
        assert pool.provisioned_size() == 2
        assert [m.uid for m in pool.active_members()] == [1, 2]
        assert pool.reap_failures() == []
        pool.handle_slice_lost(gone[0].slice)
        assert pool._live.visited == 5 * len(alive)
        assert pool.members.visited == 0

    def in_every_live_state(self, pool, kernel):
        """One ACTIVE (beside the sentinel), one DRAINING, one STARTING:
        the queued finalization and activation have not run."""
        assert pool.grow(1) == 1
        settle(kernel)
        assert pool.shrink(1) == 1
        assert pool.grow(1) == 1
        by_state = {m.state: m for m in pool._live.values() if m.uid > 1}
        assert set(by_state) == {
            MemberState.ACTIVE, MemberState.DRAINING, MemberState.STARTING,
        }
        return by_state

    def test_shutdown_reaches_every_live_state(self, pool, kernel, runtime):
        releases = ReleaseCounter(runtime.master)
        members = self.in_every_live_state(pool, kernel)
        pool.shutdown()
        settle(kernel)  # the queued activation and finalization: no-ops
        assert pool._live == {}
        assert all(
            m.state is MemberState.TERMINATED for m in members.values()
        )
        assert [releases.count(m.slice) for m in pool.members.values()] == [
            1, 1, 1, 1,
        ]
        assert runtime.master.allocated_slices() == 1

    def test_slice_loss_reaches_every_live_state(self, pool, kernel, runtime):
        releases = ReleaseCounter(runtime.master)
        members = self.in_every_live_state(pool, kernel)
        for member in members.values():
            pool.handle_slice_lost(member.slice)
            assert member.state is MemberState.TERMINATED
            assert member.uid not in pool._live
        settle(kernel)
        assert members[MemberState.STARTING].skeleton is None  # never booted
        # A lost slice is never handed back: the node took it along.
        assert releases.calls == {}
        assert pool.size() == 1

    def test_reap_reaches_serving_and_draining_members(
        self, pool, kernel, runtime
    ):
        releases = ReleaseCounter(runtime.master)
        members = self.in_every_live_state(pool, kernel)
        serving = members[MemberState.ACTIVE]
        draining = members[MemberState.DRAINING]
        for member in (serving, draining):
            runtime.transport.kill(member.endpoint_id)
        assert pool.reap_failures() == [serving, draining]
        assert [r.kind for r in pool.failure_records] == [
            "endpoint-dead", "drain-crashed",
        ]
        settle(kernel)  # the drain's own finalization must not re-release
        assert releases.count(serving.slice) == 1
        assert releases.count(draining.slice) == 1
        assert sum(releases.calls.values()) == 2
        # The member that was booting is untouched by the reap and serves.
        assert members[MemberState.STARTING].state is MemberState.ACTIVE
        assert sorted(pool._live) == [1, members[MemberState.STARTING].uid]
