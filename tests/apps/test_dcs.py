"""Tests for the DCS coordination service: namespace, total order,
sessions/ephemerals, and watches."""

import threading

import pytest

from repro.apps.dcs.service import (
    BadVersionError,
    CoordinationService,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    SessionExpiredError,
)
from repro.core.runtime import ElasticRuntime
from repro.errors import ApplicationError
from tests.rmi.test_transport import _wait_for


@pytest.fixture
def dcs(deploy):
    _, stub = deploy(CoordinationService)
    return stub


def cause_of(excinfo):
    return excinfo.value.cause


class TestNamespace:
    def test_create_and_get(self, dcs):
        dcs.create("/config", {"timeout": 30})
        record = dcs.get("/config")
        assert record["data"] == {"timeout": 30}
        assert record["version"] == 0

    def test_create_duplicate_raises(self, dcs):
        dcs.create("/dup")
        with pytest.raises(ApplicationError) as info:
            dcs.create("/dup")
        assert isinstance(cause_of(info), NodeExistsError)

    def test_create_requires_parent(self, dcs):
        with pytest.raises(ApplicationError) as info:
            dcs.create("/a/b/c")
        assert isinstance(cause_of(info), NoNodeError)

    def test_nested_creation(self, dcs):
        dcs.create("/a")
        dcs.create("/a/b")
        dcs.create("/a/b/c", "leaf")
        assert dcs.get("/a/b/c")["data"] == "leaf"

    def test_children_listed_sorted(self, dcs):
        dcs.create("/dir")
        dcs.create("/dir/zeta")
        dcs.create("/dir/alpha")
        assert dcs.get_children("/dir") == ["alpha", "zeta"]

    def test_children_of_root(self, dcs):
        dcs.create("/one")
        dcs.create("/two")
        assert set(dcs.get_children("/")) == {"one", "two"}

    def test_children_of_missing_node_raises(self, dcs):
        with pytest.raises(ApplicationError) as info:
            dcs.get_children("/ghost")
        assert isinstance(cause_of(info), NoNodeError)

    def test_exists(self, dcs):
        assert dcs.exists("/") is True
        assert dcs.exists("/nope") is False
        dcs.create("/yes")
        assert dcs.exists("/yes") is True

    def test_invalid_paths_rejected(self, dcs):
        for bad in ("no-slash", "/trailing/", "/dou//ble"):
            with pytest.raises(ApplicationError) as info:
                dcs.create(bad)
            assert isinstance(cause_of(info), ValueError)

    def test_get_missing_raises(self, dcs):
        with pytest.raises(ApplicationError) as info:
            dcs.get("/missing")
        assert isinstance(cause_of(info), NoNodeError)


class TestUpdatesAndVersions:
    def test_set_data_bumps_version(self, dcs):
        dcs.create("/n", "v0")
        dcs.set_data("/n", "v1")
        record = dcs.get("/n")
        assert record["data"] == "v1"
        assert record["version"] == 1

    def test_conditional_set_with_correct_version(self, dcs):
        dcs.create("/n", "v0")
        dcs.set_data("/n", "v1", version=0)
        assert dcs.get("/n")["data"] == "v1"

    def test_conditional_set_with_stale_version_raises(self, dcs):
        dcs.create("/n", "v0")
        dcs.set_data("/n", "v1")
        with pytest.raises(ApplicationError) as info:
            dcs.set_data("/n", "v2", version=0)
        assert isinstance(cause_of(info), BadVersionError)
        assert dcs.get("/n")["data"] == "v1"  # unchanged

    def test_delete(self, dcs):
        dcs.create("/gone")
        dcs.delete("/gone")
        assert not dcs.exists("/gone")

    def test_delete_with_children_raises(self, dcs):
        dcs.create("/p")
        dcs.create("/p/c")
        with pytest.raises(ApplicationError) as info:
            dcs.delete("/p")
        assert isinstance(cause_of(info), NotEmptyError)

    def test_delete_conditional_version(self, dcs):
        dcs.create("/n")
        dcs.set_data("/n", "x")
        with pytest.raises(ApplicationError) as info:
            dcs.delete("/n", version=0)
        assert isinstance(cause_of(info), BadVersionError)
        dcs.delete("/n", version=1)

    def test_delete_removes_from_parent_children(self, dcs):
        dcs.create("/d")
        dcs.create("/d/x")
        dcs.delete("/d/x")
        assert dcs.get_children("/d") == []


class TestTotalOrdering:
    def test_zxids_strictly_increase_across_updates(self, dcs):
        """Updates are totally ordered (paper section 5.2)."""
        z1 = dcs.create("/a")
        z2 = dcs.create("/b")
        z3 = dcs.set_data("/a", "x")
        assert z1 < z2 < z3

    def test_mzxid_tracks_latest_modification(self, dcs):
        dcs.create("/n")
        record0 = dcs.get("/n")
        dcs.set_data("/n", "x")
        record1 = dcs.get("/n")
        assert record1["mzxid"] > record0["mzxid"]
        assert record1["czxid"] == record0["czxid"]

    def test_order_holds_across_members(self, deploy):
        """Updates issued through different pool members still draw from
        one total order."""
        pool, stub = deploy(CoordinationService)
        zxids = [stub.create(f"/n{i}") for i in range(12)]
        assert zxids == sorted(zxids)
        assert len(set(zxids)) == 12
        served = {
            m.uid: m.skeleton.stats.total_calls()
            for m in pool.active_members()
        }
        assert all(count > 0 for count in served.values())


class TestSessionsAndEphemerals:
    def test_ephemeral_node_removed_on_session_close(self, dcs):
        session = dcs.create_session()
        dcs.create("/lock", ephemeral=True, session_id=session)
        removed = dcs.close_session(session)
        assert removed == ["/lock"]
        assert not dcs.exists("/lock")

    def test_persistent_nodes_survive_session_close(self, dcs):
        session = dcs.create_session()
        dcs.create("/keep")
        dcs.create("/drop", ephemeral=True, session_id=session)
        dcs.close_session(session)
        assert dcs.exists("/keep")

    def test_ephemeral_requires_session(self, dcs):
        with pytest.raises(ApplicationError) as info:
            dcs.create("/e", ephemeral=True)
        assert isinstance(cause_of(info), SessionExpiredError)

    def test_closed_session_cannot_create(self, dcs):
        session = dcs.create_session()
        dcs.close_session(session)
        with pytest.raises(ApplicationError) as info:
            dcs.create("/e", ephemeral=True, session_id=session)
        assert isinstance(cause_of(info), SessionExpiredError)

    def test_double_close_raises(self, dcs):
        session = dcs.create_session()
        dcs.close_session(session)
        with pytest.raises(ApplicationError) as info:
            dcs.close_session(session)
        assert isinstance(cause_of(info), SessionExpiredError)

    def test_ephemeral_nodes_cannot_have_children(self, dcs):
        session = dcs.create_session()
        dcs.create("/e", ephemeral=True, session_id=session)
        with pytest.raises(ApplicationError) as info:
            dcs.create("/e/child")
        assert isinstance(cause_of(info), NodeExistsError)

    def test_leader_election_recipe(self, dcs):
        """The classic usage: ephemeral lock node; the winner holds it
        until its session dies, then the next contender can take it."""
        s1, s2 = dcs.create_session(), dcs.create_session()
        dcs.create("/election", ephemeral=True, session_id=s1)
        with pytest.raises(ApplicationError):
            dcs.create("/election", ephemeral=True, session_id=s2)
        dcs.close_session(s1)
        dcs.create("/election", ephemeral=True, session_id=s2)  # now wins


class TestWatches:
    def test_watch_fires_on_change(self, dcs):
        dcs.create("/w")
        dcs.watch("/w", "client-1")
        dcs.set_data("/w", "new")
        events = dcs.poll_events("client-1")
        assert len(events) == 1
        assert events[0].path == "/w"
        assert events[0].kind == "changed"

    def test_watch_fires_on_delete(self, dcs):
        dcs.create("/w")
        dcs.watch("/w", "c")
        dcs.delete("/w")
        assert dcs.poll_events("c")[0].kind == "deleted"

    def test_watch_fires_on_create(self, dcs):
        dcs.watch("/future", "c")
        dcs.create("/future")
        assert dcs.poll_events("c")[0].kind == "created"

    def test_watch_is_one_shot(self, dcs):
        dcs.create("/w")
        dcs.watch("/w", "c")
        dcs.set_data("/w", "1")
        dcs.set_data("/w", "2")
        assert len(dcs.poll_events("c")) == 1

    def test_poll_drains_feed(self, dcs):
        dcs.create("/w")
        dcs.watch("/w", "c")
        dcs.set_data("/w", "1")
        dcs.poll_events("c")
        assert dcs.poll_events("c") == []

    def test_multiple_watchers_all_notified(self, dcs):
        dcs.create("/w")
        dcs.watch("/w", "a")
        dcs.watch("/w", "b")
        dcs.set_data("/w", "x")
        assert len(dcs.poll_events("a")) == 1
        assert len(dcs.poll_events("b")) == 1

    def test_events_ordered_by_zxid(self, dcs):
        dcs.create("/w1")
        dcs.create("/w2")
        dcs.watch("/w1", "c")
        dcs.watch("/w2", "c")
        dcs.set_data("/w1", "x")
        dcs.set_data("/w2", "y")
        events = dcs.poll_events("c")
        assert [e.zxid for e in events] == sorted(e.zxid for e in events)


class TestDcsScaling:
    def test_rate_based_vote(self, deploy, runtime):
        pool, _ = deploy(CoordinationService)
        runtime.store.put("CoordinationService$offered_rate", 30_000.0)
        vote = pool.active_members()[0].instance.change_pool_size()
        # 30000/(3500*0.83)=10.3 -> 11 wanted, have 2 -> clamped to +8.
        assert vote == 8

    def test_updates_counter_shared(self, dcs, runtime):
        dcs.create("/a")
        dcs.set_data("/a", 1)
        dcs.delete("/a")
        assert runtime.store.get("CoordinationService$updates_total") == 3


class TestConcurrentCreate:
    """ZooKeeper's contract: of two creates of one path, exactly one
    succeeds, even when both pass the existence check before either
    writes."""

    def test_exactly_one_of_two_racing_creates_succeeds(self):
        runtime = ElasticRuntime.local(nodes=4)
        try:
            pool = runtime.new_pool(CoordinationService, name="dcs")
            assert _wait_for(lambda: pool.size() == 2)
            store = runtime.store
            real_exists = store.exists
            barrier = threading.Barrier(2, timeout=10.0)

            def exists(key):
                found = real_exists(key)
                if key == "dcs/node/x":
                    barrier.wait()  # both have checked, neither has written
                return found

            store.exists = exists
            outcomes = []

            def create(tag):
                stub = runtime.stub("dcs", caller=f"client-{tag}")
                try:
                    outcomes.append((tag, stub.create("/x", tag)))
                except ApplicationError as exc:
                    outcomes.append((tag, exc.cause))

            threads = [
                threading.Thread(target=create, args=(tag,)) for tag in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            won = [(tag, zxid) for tag, zxid in outcomes if isinstance(zxid, int)]
            lost = [err for _, err in outcomes if not isinstance(err, int)]
            assert len(won) == 1
            assert len(lost) == 1 and isinstance(lost[0], NodeExistsError)
            winner, czxid = won[0]
            record = store.get("dcs/node/x")
            assert record["data"] == winner and record["czxid"] == czxid
            assert store.get("dcs/children/") == ["x"]
        finally:
            runtime.shutdown()


class TestConcurrentDelete:
    """Of two deletes of one znode, exactly one succeeds, even when both
    read the record before either deletes it."""

    def test_the_loser_of_two_racing_deletes_raises_and_fires_nothing(
        self, deploy, runtime
    ):
        _, stub = deploy(CoordinationService)
        stub.create("/x")
        stub.watch("/x", "c")
        store = runtime.store
        zxid_before = store.get("dcs/zxid")
        updates_before = store.get("CoordinationService$updates_total")
        real_get = store.get
        raced = []

        def get(key, *args, **kwargs):
            found = real_get(key, *args, **kwargs)
            if key == "dcs/node/x" and not raced:
                raced.append(key)
                stub.delete("/x")  # B, between A's check and A's act
            return found

        store.get = get
        with pytest.raises(ApplicationError) as excinfo:
            stub.delete("/x")  # A
        assert raced
        assert isinstance(cause_of(excinfo), NoNodeError)
        assert [e.kind for e in stub.poll_events("c")] == ["deleted"]
        assert store.get("dcs/zxid") == zxid_before + 1
        assert store.get("CoordinationService$updates_total") == updates_before + 1
        assert not stub.exists("/x")
