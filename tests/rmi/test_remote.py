"""Tests for skeletons and unicast stubs: dispatch, stats, drain,
redirects, and failure semantics."""

import threading

import pytest

from repro.errors import (
    ApplicationError,
    ConnectError,
    MemberDrainedError,
    NoSuchObjectError,
)
from repro.rmi.aio import AsyncioTransport
from repro.rmi.fastpath import marshal_call
from repro.rmi.remote import Remote, Skeleton, Stub
from repro.rmi.transport import DirectTransport, Request, Response


class Calculator(Remote):
    def __init__(self):
        self.memory = 0.0

    def add(self, a, b):
        return a + b

    def store(self, value):
        self.memory = value

    def recall(self):
        return self.memory

    def explode(self):
        raise ValueError("kaboom")


@pytest.fixture
def transport():
    return DirectTransport()


@pytest.fixture
def exported(transport):
    endpoint = transport.add_endpoint("server")
    skeleton = Skeleton(Calculator(), transport, endpoint.endpoint_id)
    stub = Stub(transport, skeleton.ref())
    return skeleton, stub


class TestInvocation:
    def test_basic_call(self, exported):
        _, stub = exported
        assert stub.add(2, 3) == 5

    def test_kwargs(self, exported):
        _, stub = exported
        assert stub.add(a=2, b=3) == 5

    def test_state_persists_across_calls(self, exported):
        _, stub = exported
        stub.store(1.5)
        assert stub.recall() == 1.5

    def test_application_exception_propagates_with_cause(self, exported):
        _, stub = exported
        with pytest.raises(ApplicationError) as info:
            stub.explode()
        assert isinstance(info.value.cause, ValueError)
        assert "kaboom" in str(info.value.cause)

    def test_unknown_method_is_remote_error(self, exported):
        _, stub = exported
        with pytest.raises(ApplicationError):
            stub.no_such_method()

    def test_arguments_pass_by_value(self, transport):
        class Holder(Remote):
            def __init__(self):
                self.seen = None

            def take(self, lst):
                self.seen = lst
                lst.append("server-side-mutation")
                return len(lst)

        impl = Holder()
        endpoint = transport.add_endpoint("s")
        skeleton = Skeleton(impl, transport, endpoint.endpoint_id)
        stub = Stub(transport, skeleton.ref())
        mine = [1, 2]
        assert stub.take(mine) == 3
        assert mine == [1, 2]           # client copy untouched
        assert impl.seen is not mine    # server got its own copy

    def test_private_attribute_access_not_proxied(self, exported):
        _, stub = exported
        with pytest.raises(AttributeError):
            stub._secret


@pytest.fixture(params=["direct", "asyncio"])
def any_transport(request):
    if request.param == "direct":
        transport = DirectTransport()
    else:
        transport = AsyncioTransport()
    yield transport
    if request.param == "asyncio":
        transport.shutdown()


class TestPrivateNamesRefused:
    """The proxies refuse ``_`` names on the client, but ``invoke_async``
    names the method as a string: the skeleton itself must refuse them,
    with the error an undeclared method gets."""

    @staticmethod
    def export(transport, impl):
        endpoint = transport.add_endpoint("server")
        skeleton = Skeleton(impl, transport, endpoint.endpoint_id)
        return skeleton, Stub(transport, skeleton.ref())

    @staticmethod
    def refusal(stub, name, *args):
        with pytest.raises(ApplicationError) as info:
            stub.invoke_async(name, *args).result(timeout=5.0)
        return info.value.cause

    def test_setattr_cannot_rewrite_state(self, any_transport):
        impl = Calculator()
        impl.memory = 1.5
        _, stub = self.export(any_transport, impl)
        cause = self.refusal(stub, "__setattr__", "memory", 42)
        assert isinstance(cause, NoSuchObjectError)
        assert impl.memory == 1.5
        assert stub.recall() == 1.5

    def test_constructor_cannot_be_rerun(self, any_transport):
        impl = Calculator()
        impl.memory = 7.0
        skeleton, stub = self.export(any_transport, impl)
        assert isinstance(self.refusal(stub, "__init__"), NoSuchObjectError)
        assert impl.memory == 7.0
        assert skeleton.stats.snapshot()["__init__"].errors == 1

    def test_made_up_names_are_refused_and_not_remembered(self, any_transport):
        skeleton, stub = self.export(any_transport, Calculator())
        assert stub.add(1, 2) == 3
        known = dict(skeleton._methods)
        for i in range(20):
            assert isinstance(self.refusal(stub, f"_nope{i}"), NoSuchObjectError)
        assert skeleton._methods == known


class TestCallStats:
    def test_calls_recorded_per_method(self, exported):
        skeleton, stub = exported
        stub.add(1, 1)
        stub.add(2, 2)
        stub.recall()
        snap = skeleton.stats.snapshot()
        assert snap["add"].calls == 2
        assert snap["recall"].calls == 1

    def test_errors_counted(self, exported):
        skeleton, stub = exported
        with pytest.raises(ApplicationError):
            stub.explode()
        assert skeleton.stats.snapshot()["explode"].errors == 1

    def test_snapshot_and_reset_starts_fresh_window(self, exported):
        skeleton, stub = exported
        stub.add(1, 1)
        window = skeleton.stats.snapshot_and_reset()
        assert window["add"].calls == 1
        stub.add(1, 1)
        assert skeleton.stats.snapshot()["add"].calls == 1

    def test_latency_mean(self, exported):
        skeleton, stub = exported
        stub.add(1, 1)
        stats = skeleton.stats.snapshot()["add"]
        assert stats.latency() >= 0.0


class TestDrain:
    def test_draining_skeleton_rejects_new_calls(self, exported):
        skeleton, stub = exported
        skeleton.start_drain()
        with pytest.raises(MemberDrainedError):
            stub.add(1, 1)

    def test_drained_flag_with_no_pending(self, exported):
        skeleton, _ = exported
        skeleton.start_drain()
        assert skeleton.is_drained

    def test_unexport_removes_handler(self, transport, exported):
        skeleton, stub = exported
        skeleton.unexport()
        with pytest.raises(ConnectError):
            stub.add(1, 1)

    def test_call_racing_the_drain_is_refused_not_run_after_it(self, exported):
        """A call that passed the unlocked ``draining`` check is stopped
        at the pending count: once ``wait_drained`` has returned, nothing
        runs on the member any more.

        The redirect policy sits between that check and the count, so it
        holds the dispatching thread exactly there while this thread
        drains the member."""
        skeleton, _ = exported
        past_the_check, drained = threading.Event(), threading.Event()

        def hold(request):
            past_the_check.set()
            assert drained.wait(timeout=5.0)
            return None

        skeleton.redirect_policy = hold
        request = Request(skeleton.object_id, "store", marshal_call((7.0,), {}))
        replies = []
        caller = threading.Thread(
            target=lambda: replies.append(skeleton.handle(request))
        )
        caller.start()
        assert past_the_check.wait(timeout=5.0)
        skeleton.start_drain()
        assert skeleton.wait_drained(timeout=0) and skeleton.is_drained
        drained.set()
        caller.join(timeout=5.0)
        assert not caller.is_alive()
        assert [reply.kind for reply in replies] == ["drained"]
        assert skeleton.impl.memory == 0.0  # the method never ran
        assert skeleton.pending == 0 and skeleton.is_drained

    def test_a_run_the_drain_beats_to_the_lock_is_all_drained(self, exported):
        """With no redirect policy too, a run that passed the unlocked
        check but finds the member draining under the pending lock
        replies ``drained`` for every call and counts none."""
        skeleton, _ = exported
        lock = skeleton._pending_lock

        class DrainFirst:
            def __enter__(self):
                lock.acquire()
                skeleton.draining = True  # the drain got the lock first

            def __exit__(self, *exc_info):
                lock.release()

        skeleton._pending_lock = DrainFirst()
        request = Request(skeleton.object_id, "store", marshal_call((7.0,), {}))
        replies = skeleton.handle_run((request, request))
        assert [reply.kind for reply in replies] == ["drained", "drained"]
        assert skeleton.impl.memory == 0.0
        assert skeleton.pending == 0


class TestRedirects:
    def test_redirect_policy_bounces_to_target(self, transport):
        ep_a = transport.add_endpoint("a")
        ep_b = transport.add_endpoint("b")
        skel_a = Skeleton(Calculator(), transport, ep_a.endpoint_id)
        skel_b = Skeleton(Calculator(), transport, ep_b.endpoint_id)
        skel_a.redirect_policy = lambda req: skel_b.ref()
        stub = Stub(transport, skel_a.ref())
        assert stub.add(4, 4) == 8
        assert skel_b.stats.snapshot()["add"].calls == 1
        assert skel_a.stats.snapshot() == {}

    def test_redirect_loop_detected(self, transport):
        ep_a = transport.add_endpoint("a")
        ep_b = transport.add_endpoint("b")
        skel_a = Skeleton(Calculator(), transport, ep_a.endpoint_id)
        skel_b = Skeleton(Calculator(), transport, ep_b.endpoint_id)
        skel_a.redirect_policy = lambda req: skel_b.ref()
        skel_b.redirect_policy = lambda req: skel_a.ref()
        stub = Stub(transport, skel_a.ref())
        with pytest.raises(ApplicationError):
            stub.add(1, 1)

    def test_self_redirect_executes_locally(self, transport):
        ep = transport.add_endpoint("a")
        skel = Skeleton(Calculator(), transport, ep.endpoint_id)
        skel.redirect_policy = lambda req: skel.ref()
        stub = Stub(transport, skel.ref())
        assert stub.add(1, 2) == 3

    def test_a_table_cleared_mid_run_is_read_once_per_run(self, transport):
        """The sentinel's rebalance replaces or clears the table from
        another thread at any time; a run already past its check keeps
        the table it read and serves every call."""
        ep = transport.add_endpoint("a")
        skel = Skeleton(Calculator(), transport, ep.endpoint_id)

        def cleared_by_a_rebalance(request):
            skel.redirect_policy = None
            return None

        skel.redirect_policy = cleared_by_a_rebalance
        request = Request(skel.object_id, "add", marshal_call((1, 2), {}))
        replies = skel.handle_run([request, request])
        assert [reply.kind for reply in replies] == ["result", "result"]
        assert skel.pending == 0


class TestEndpointFailure:
    def test_dead_endpoint_raises_connect_error(self, transport, exported):
        skeleton, stub = exported
        transport.kill(skeleton.endpoint_id)
        with pytest.raises(ConnectError):
            stub.add(1, 1)

    def test_unknown_endpoint_raises(self, transport):
        from repro.rmi.remote import RemoteRef

        stub = Stub(transport, RemoteRef("ep-999", "obj-1"))
        with pytest.raises(ConnectError):
            stub.add(1, 1)
