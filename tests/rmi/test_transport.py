"""Tests for direct and threaded transports."""

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.api import ElasticObject
from repro.core.runtime import ElasticRuntime
from repro.errors import ConnectError, RemoteError
from repro.rmi.aio import blocking
from repro.rmi.marshal import marshal_value
from repro.rmi.remote import Remote, Skeleton, Stub
from repro.rmi.transport import (
    BatchRequest,
    DirectTransport,
    Request,
    Response,
    ThreadedTransport,
)


def echo_handler(request: Request) -> Response:
    return Response(kind="result", payload=request.payload)


class TestDirectTransport:
    def test_invoke_reaches_handler(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        payload = marshal_value(((1,), {}))
        response = transport.invoke(
            ep.endpoint_id, Request("o", "m", payload)
        )
        assert response.kind == "result"
        assert response.payload == payload

    def test_unknown_object_raises(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        with pytest.raises(ConnectError):
            transport.invoke(ep.endpoint_id, Request("nope", "m", b""))

    def test_killed_endpoint_raises(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        transport.kill(ep.endpoint_id)
        with pytest.raises(ConnectError):
            transport.invoke(ep.endpoint_id, Request("o", "m", b""))

    def test_revive_restores_service(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        transport.kill(ep.endpoint_id)
        transport.revive(ep.endpoint_id)
        response = transport.invoke(ep.endpoint_id, Request("o", "m", b"x"))
        assert response.kind == "result"

    def test_message_counter_and_hook(self):
        seen = []
        transport = DirectTransport()
        transport.install_fault_hook(lambda eid, req: seen.append(req))
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        transport.invoke(ep.endpoint_id, Request("o", "m", b""))
        assert transport.messages_sent == 1
        assert len(seen) == 1

    def test_duplicate_export_raises(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        with pytest.raises(ValueError):
            ep.export("o", echo_handler)


class SlowService(Remote):
    def nap(self, seconds):
        time.sleep(seconds)
        return "rested"

    def ping(self):
        return "pong"


class TestThreadedTransport:
    def test_end_to_end_call(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            assert stub.ping() == "pong"
        finally:
            transport.shutdown()

    def test_concurrent_calls_overlap(self):
        """Two 150 ms calls through a 4-worker endpoint should finish in
        well under 300 ms — proof of real concurrency."""
        transport = ThreadedTransport(workers_per_endpoint=4)
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            results = []
            started = time.monotonic()
            threads = [
                threading.Thread(target=lambda: results.append(stub.nap(0.15)))
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.monotonic() - started
            assert results == ["rested", "rested"]
            assert elapsed < 0.29
        finally:
            transport.shutdown()

    def test_kill_stops_dispatch(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            transport.kill(ep.endpoint_id)
            with pytest.raises(ConnectError):
                stub.ping()
        finally:
            transport.shutdown()

    def test_pending_tracked_during_call(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            t = threading.Thread(target=lambda: stub.nap(0.2))
            t.start()
            time.sleep(0.05)
            assert skel.pending == 1
            t.join()
            assert skel.pending == 0
        finally:
            transport.shutdown()

    def test_drain_waits_for_inflight_calls(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            t = threading.Thread(target=lambda: stub.nap(0.2))
            t.start()
            time.sleep(0.05)
            skel.start_drain()
            assert not skel.is_drained  # call still in flight
            assert skel.wait_drained(timeout=2.0)
            t.join()
        finally:
            transport.shutdown()


class _Boom(Exception):
    pass


class _Pooled:
    """A test-side target (not a callable, so exported as it is) whose
    every call is pooled: ``offloads`` answers True, as a skeleton's
    does for a ``@blocking`` method, so ``ThreadedTransport.invoke``
    queues it on the member's workers."""

    def __init__(self, handle):
        self.handle = handle

    def handle_run(self, requests, loop=None):
        return list(map(self.handle, requests))

    def offloads(self, name):
        return True


class _Gate:
    """An endpoint whose ``park`` object blocks until released and whose
    ``echo`` object answers at once; both pooled unless ``pooled`` is
    False, when a call runs in its caller's thread."""

    def __init__(self, transport, name, pooled=True):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)
        self.endpoint = transport.add_endpoint(name)
        wrap = _Pooled if pooled else (lambda handle: handle)
        self.endpoint.export("park", wrap(self._park))
        self.endpoint.export("echo", wrap(echo_handler))
        self.id = self.endpoint.endpoint_id

    def _park(self, request: Request) -> Response:
        self.entered.release()
        self.release.wait(timeout=10.0)
        return Response(kind="result", payload=request.payload)


def _dispatch_threads(name):
    return [
        t for t in threading.enumerate()
        if t.name.startswith(f"erm-{name}") and t.is_alive()
    ]


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class _Pinger(ElasticObject):
    @blocking
    def ping(self):
        return "pong"


class TestThreadedDispatcher:
    """The hand-off itself: one queue-fed worker pool per endpoint and a
    one-shot completion slot per call."""

    def test_handler_exception_reaches_the_caller_unchanged(self):
        transport = ThreadedTransport()
        try:
            boom = _Boom("from the handler")

            def raising(request):
                raise boom

            ep = transport.add_endpoint("s")
            ep.export("o", raising)
            with pytest.raises(_Boom) as caught:
                transport.invoke(ep.endpoint_id, Request("o", "m", b""))
            assert caught.value is boom
            # The worker survived it.
            ep.export("echo", echo_handler)
            response = transport.invoke(
                ep.endpoint_id, Request("echo", "m", b"x")
            )
            assert response.payload == b"x"
        finally:
            transport.shutdown()

    def test_handler_receives_the_callers_request_object(self):
        transport = ThreadedTransport()
        try:
            seen = []
            ep = transport.add_endpoint("s")
            ep.export("o", lambda req: seen.append(req) or echo_handler(req))
            request = Request("o", "m", b"")
            transport.invoke(ep.endpoint_id, request)
            assert seen[0] is request
        finally:
            transport.shutdown()

    def test_slow_handler_times_out_as_remote_error(self):
        transport = ThreadedTransport(workers_per_endpoint=1, timeout=0.05)
        try:
            gate = _Gate(transport, "slow")
            with pytest.raises(RemoteError, match=r"'m' timed out after 0.05s"):
                transport.invoke(gate.id, Request("park", "m", b""))
            # The caller gave up; the handler runs on and frees the worker.
            gate.release.set()
            assert _wait_for(
                lambda: transport.dispatch_stats(gate.id)["busy"] == 0
            )
            response = transport.invoke(gate.id, Request("echo", "m", b"y"))
            assert response.payload == b"y"
        finally:
            transport.shutdown()

    def test_slow_batch_trips_one_deadline(self):
        transport = ThreadedTransport(workers_per_endpoint=2, timeout=0.05)
        try:
            gate = _Gate(transport, "slow-batch")
            batch = BatchRequest(
                entries=tuple(Request("park", "m", b"") for _ in range(4))
            )
            started = time.monotonic()
            with pytest.raises(RemoteError, match="batch of 4 .* timed out"):
                transport.invoke_batch(gate.id, batch)
            # One deadline for the whole batch, not one per chunk.
            assert time.monotonic() - started < 0.09
            gate.release.set()
        finally:
            transport.shutdown()

    def test_kill_fails_queued_calls_and_lets_the_running_one_finish(self):
        queued_callers = 5
        transport = ThreadedTransport(workers_per_endpoint=1)
        try:
            gate = _Gate(transport, "doomed")
            parked = {}
            parker = threading.Thread(
                target=lambda: parked.update(
                    response=transport.invoke(
                        gate.id, Request("park", "m", b"kept")
                    )
                )
            )
            parker.start()
            assert gate.entered.acquire(timeout=5.0)

            errors = []

            def queued_call():
                try:
                    transport.invoke(gate.id, Request("echo", "m", b""))
                except BaseException as exc:
                    errors.append(exc)

            callers = [
                threading.Thread(target=queued_call)
                for _ in range(queued_callers)
            ]
            for t in callers:
                t.start()
            assert _wait_for(
                lambda: transport.dispatch_stats(gate.id)["queued"]
                == queued_callers
            )

            transport.kill(gate.id)
            # The queued calls fail now, while the worker is still parked.
            for t in callers:
                t.join(timeout=5.0)
                assert not t.is_alive()
            assert len(errors) == queued_callers
            for error in errors:
                assert type(error) is ConnectError
                assert "(doomed) is down" in str(error)
            stats = transport.dispatch_stats(gate.id)
            assert stats["queued"] == 0
            assert stats["busy"] == 1

            gate.release.set()
            parker.join(timeout=5.0)
            assert not parker.is_alive()
            assert parked["response"].payload == b"kept"
            # A late caller gets the same error, and the worker exits.
            with pytest.raises(ConnectError, match="is down"):
                transport.invoke(gate.id, Request("echo", "m", b""))
            assert _wait_for(lambda: _dispatch_threads("doomed") == [])
        finally:
            transport.shutdown()

    def test_workers_spawn_lazily_and_never_exceed_the_bound(self):
        workers = 3
        transport = ThreadedTransport(workers_per_endpoint=workers)
        try:
            gate = _Gate(transport, "bounded")
            assert _dispatch_threads("bounded") == []
            for _ in range(200):
                transport.invoke(gate.id, Request("echo", "m", b""))
            # A closed-loop caller always finds its one worker free.
            assert len(_dispatch_threads("bounded")) == 1

            callers = [
                threading.Thread(
                    target=lambda: transport.invoke(
                        gate.id, Request("park", "m", b"")
                    )
                )
                for _ in range(3 * workers)
            ]
            for t in callers:
                t.start()
            for _ in range(workers):
                assert gate.entered.acquire(timeout=5.0)
            assert len(_dispatch_threads("bounded")) == workers
            gate.release.set()
            for t in callers:
                t.join(timeout=5.0)
                assert not t.is_alive()
            assert len(_dispatch_threads("bounded")) == workers
        finally:
            transport.shutdown()

    @pytest.mark.parametrize("pooled", [False, True], ids=["plain", "blocking"])
    def test_callers_racing_a_kill_all_complete(self, pooled):
        """No call may be stranded by a kill: every caller gets a reply
        or the "is down" ConnectError, and the saturation counters
        return to zero — for plain calls, which run in their callers'
        threads, and for pooled ones, between a submit and a close."""
        callers = 8
        transport = ThreadedTransport(workers_per_endpoint=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(20):
                gate = _Gate(transport, f"raced-{round_}", pooled)
                unexpected = []
                ready = threading.Barrier(callers + 1)

                def hammer():
                    ready.wait(timeout=5.0)
                    try:
                        while True:
                            transport.invoke(
                                gate.id, Request("echo", "m", b"")
                            )
                    except ConnectError as exc:
                        if "is down" not in str(exc):
                            unexpected.append(exc)
                    except BaseException as exc:
                        unexpected.append(exc)

                threads = [
                    threading.Thread(target=hammer) for _ in range(callers)
                ]
                for t in threads:
                    t.start()
                ready.wait(timeout=5.0)
                time.sleep(0.002)
                transport.kill(gate.id)
                for t in threads:
                    t.join(timeout=10.0)
                    assert not t.is_alive(), "a caller was left parked"
                assert unexpected == []
                assert _wait_for(
                    lambda: transport.dispatch_stats(gate.id)
                    == {"queued": 0, "busy": 0, "workers": 2}
                )
                assert _wait_for(
                    lambda: _dispatch_threads(f"raced-{round_}") == []
                )
        finally:
            sys.setswitchinterval(interval)
            transport.shutdown()

    def test_runtime_shutdown_leaves_no_dispatch_thread(self):
        before = set(threading.enumerate())
        runtime = ElasticRuntime.local(transport="threaded")
        try:
            runtime.new_pool(_Pinger, name="pingers")
            assert runtime.stub("pingers").ping() == "pong"
            spawned = [
                t for t in threading.enumerate()
                if t not in before and t.name.startswith("erm-")
            ]
            assert spawned
        finally:
            runtime.shutdown()
        for t in spawned:
            t.join(timeout=5.0)
            assert not t.is_alive(), t.name

    def test_closed_endpoint_fails_before_any_message_bookkeeping(self):
        """After shutdown() the endpoint is still marked alive, but the
        transport is closed: the call must fail as a dead endpoint does
        — before the fault hook and the message count."""
        transport = ThreadedTransport()
        ep = transport.add_endpoint("gone")
        ep.export("echo", echo_handler)
        transport.invoke(ep.endpoint_id, Request("echo", "m", b""))
        transport.shutdown()
        hooked = []
        transport.install_fault_hook(lambda eid, request: hooked.append(request))
        sent = transport.messages_sent
        with pytest.raises(ConnectError, match="is down"):
            transport.invoke(ep.endpoint_id, Request("echo", "m", b""))
        with pytest.raises(ConnectError, match="is down"):
            transport.invoke_batch(
                ep.endpoint_id,
                BatchRequest(entries=(Request("echo", "m", b""),)),
            )
        assert hooked == []
        assert transport.messages_sent == sent


class _Where(Remote):
    """Says which thread runs its calls: ``where`` is a plain method,
    ``pooled`` and ``park`` are ``@blocking``."""

    def __init__(self):
        self.gate = threading.Event()

    def where(self):
        return threading.get_ident()

    @blocking
    def pooled(self):
        return threading.current_thread().name

    @blocking
    def park(self):
        self.gate.wait(timeout=10.0)
        return "released"


class TestInlineDispatch:
    """On ``ThreadedTransport`` a plain call runs in its caller's thread
    after the same checks and bookkeeping a pooled one gets; only a
    ``@blocking`` call is handed to the member's workers."""

    def test_plain_calls_run_in_the_callers_thread(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("inline")
            stub = Stub(transport, Skeleton(_Where(), transport, ep.endpoint_id).ref())
            hooked = []
            transport.install_fault_hook(
                lambda eid, request: hooked.append(request.method)
            )
            caller = threading.get_ident()
            assert [stub.where() for _ in range(200)] == [caller] * 200
            assert _dispatch_threads("inline") == []
            assert transport.dispatch_stats(ep.endpoint_id) == {
                "queued": 0, "busy": 0, "workers": 4,
            }
            assert transport.messages_sent == 200
            assert hooked == ["where"] * 200
        finally:
            transport.shutdown()

    def test_a_killed_endpoint_is_down_before_the_hook_and_the_count(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("killed")
            stub = Stub(transport, Skeleton(_Where(), transport, ep.endpoint_id).ref())
            hooked = []
            transport.install_fault_hook(
                lambda eid, request: hooked.append(request.method)
            )
            transport.kill(ep.endpoint_id)
            with pytest.raises(ConnectError, match=r"\(killed\) is down"):
                stub.where()
            assert hooked == []
            assert transport.messages_sent == 0
        finally:
            transport.shutdown()

    def test_a_blocking_method_still_runs_on_the_members_workers(self):
        transport = ThreadedTransport(timeout=0.05)
        impl = _Where()
        try:
            ep = transport.add_endpoint("pooled")
            stub = Stub(transport, Skeleton(impl, transport, ep.endpoint_id).ref())
            assert stub.pooled().startswith("erm-pooled_")
            assert stub.where() == threading.get_ident()
            with pytest.raises(RemoteError, match=r"'park' timed out after 0.05s"):
                stub.park()
            impl.gate.set()
        finally:
            transport.shutdown()

    def test_no_timeout_waits_for_a_pooled_call(self):
        """``timeout=None`` means no deadline, as on the asyncio
        transport: a pooled call is waited for as long as it runs."""
        transport = ThreadedTransport(timeout=None)
        impl = _Where()
        try:
            ep = transport.add_endpoint("patient")
            stub = Stub(transport, Skeleton(impl, transport, ep.endpoint_id).ref())
            threading.Timer(0.05, impl.gate.set).start()
            assert stub.park() == "released"
        finally:
            transport.shutdown()

    def test_no_timeout_waits_for_a_batch(self):
        transport = ThreadedTransport(workers_per_endpoint=2, timeout=None)
        try:
            gate = _Gate(transport, "patient-batch")
            threading.Timer(0.05, gate.release.set).start()
            batch = BatchRequest(
                entries=tuple(Request("park", "m", bytes([i])) for i in range(4))
            )
            replies = transport.invoke_batch(gate.id, batch).entries
            assert [r.payload for r in replies] == [bytes([i]) for i in range(4)]
        finally:
            transport.shutdown()


def test_a_threaded_process_never_loads_asyncio():
    """A process that serves plain and ``@blocking`` calls on a threaded
    runtime never imports asyncio (nor the ssl it loads) or
    concurrent.futures; an asyncio transport built later in the same
    process still serves a call."""
    code = textwrap.dedent(
        """
        import sys

        import repro
        from repro.rmi.aio import blocking


        class Service(repro.ElasticObject):
            def echo(self, value):
                return value

            @blocking
            def slow_echo(self, value):
                return value


        runtime = repro.ElasticRuntime.local(transport="threaded")
        try:
            runtime.new_pool(Service, name="svc")
            stub = runtime.stub("svc")
            assert (stub.echo(1), stub.slow_echo(2)) == (1, 2)
        finally:
            runtime.shutdown()
        assert "asyncio" not in sys.modules
        assert "ssl" not in sys.modules
        assert "concurrent.futures" not in sys.modules

        from repro.rmi.aio import AsyncioTransport
        from repro.rmi.remote import Remote, Skeleton, Stub


        class Echo(Remote):
            def echo(self, value):
                return value


        transport = AsyncioTransport()
        try:
            ep = transport.add_endpoint("aio")
            ref = Skeleton(Echo(), transport, ep.endpoint_id).ref()
            assert Stub(transport, ref).echo(3) == 3
        finally:
            transport.shutdown()
        assert "asyncio" in sys.modules
        print("served")
        """
    )
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "served"


def _transport(kind, **options):
    from repro.rmi.aio import AsyncioTransport

    return {
        "direct": DirectTransport, "threaded": ThreadedTransport,
        "asyncio": AsyncioTransport,
    }[kind](**options)


KINDS = ["direct", "threaded", "asyncio"]


@pytest.mark.parametrize("kind", KINDS)
def test_an_empty_batch_is_one_message_with_no_replies(kind):
    transport = _transport(kind)
    try:
        ep = transport.add_endpoint("s")
        reply = transport.invoke_batch(ep.endpoint_id, BatchRequest(entries=()))
        assert reply.entries == ()
        assert transport.messages_sent == 1
    finally:
        if kind != "direct":
            transport.shutdown()


@pytest.mark.parametrize("kind", KINDS)
def test_a_bare_callable_serves_a_call_and_a_batch(kind):
    """A handler callable exported without a skeleton serves an
    unbatched call and a batch of two on every transport; an object id
    is exported once."""
    transport = _transport(kind)
    try:
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        reply = transport.invoke(ep.endpoint_id, Request("o", "m", b"one"))
        assert reply == Response(kind="result", payload=b"one")
        batch = BatchRequest(
            entries=(Request("o", "m", b"a"), Request("o", "m", b"b"))
        )
        replies = transport.invoke_batch(ep.endpoint_id, batch).entries
        assert [(r.kind, r.payload) for r in replies] == [
            ("result", b"a"), ("result", b"b"),
        ]
        with pytest.raises(ValueError, match="already exported"):
            ep.export("o", echo_handler)
    finally:
        if kind != "direct":
            transport.shutdown()


class TestOnePrologue:
    """Every transport resolves, hooks, counts and traces a wire message
    the same way: one fault-hook call and one count per message, and a
    refused message gets neither."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_refused_message_is_neither_hooked_nor_counted(self, kind):
        transport = _transport(kind)
        hooked = []
        transport.install_fault_hook(
            lambda eid, request: hooked.append(request.method)
        )
        try:
            ep = transport.add_endpoint("prologue")
            ep.export("o", echo_handler)
            call = Request("o", "m", b"x")
            batch = BatchRequest(entries=(call, call, call))
            assert transport.invoke(ep.endpoint_id, call).payload == b"x"
            assert len(transport.invoke_batch(ep.endpoint_id, batch)) == 3
            # A batch is one message, which the hook sees as its envelope.
            assert hooked == ["m", "ermi.batch[3]"]
            assert transport.messages_sent == 2
            transport.kill(ep.endpoint_id)
            for send, message in (
                (transport.invoke, call), (transport.invoke_batch, batch),
            ):
                with pytest.raises(ConnectError, match=r"\(prologue\) is down"):
                    send(ep.endpoint_id, message)
            assert hooked == ["m", "ermi.batch[3]"]
            assert transport.messages_sent == 2
        finally:
            if kind != "direct":
                transport.shutdown()

    @pytest.mark.parametrize("kind", ["threaded", "asyncio"])
    def test_a_shut_down_transport_refuses_before_the_hook(self, kind):
        transport = _transport(kind)
        hooked = []
        ep = transport.add_endpoint("alive")
        ep.export("o", echo_handler)
        transport.shutdown()
        transport.install_fault_hook(
            lambda eid, request: hooked.append(request.method)
        )
        call = Request("o", "m", b"x")
        with pytest.raises(ConnectError):
            transport.invoke(ep.endpoint_id, call)
        with pytest.raises(ConnectError):
            transport.invoke_batch(ep.endpoint_id, BatchRequest(entries=(call,)))
        assert hooked == []
        assert transport.messages_sent == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_revive_leaves_an_endpoint_whose_pool_was_closed_down(self, kind):
        """A closed pool never reopens: after ``kill`` and ``revive`` a
        plain call and a ``@blocking`` one are both refused "is down",
        on every transport, never one served and the other not."""
        transport = _transport(kind)
        try:
            ep = transport.add_endpoint("revived")
            stub = Stub(transport, Skeleton(_Where(), transport, ep.endpoint_id).ref())
            stub.pooled()
            # The pool a live transport has by now (DirectTransport never
            # makes one of its own).
            transport._pool(ep)
            transport.kill(ep.endpoint_id)
            transport.revive(ep.endpoint_id)
            for call in (stub.where, stub.pooled):
                with pytest.raises(ConnectError, match=r"\(revived\) is down"):
                    call()
        finally:
            if kind != "direct":
                transport.shutdown()


@pytest.mark.parametrize("kind", ["threaded", "asyncio"])
@pytest.mark.parametrize("timeout", [0, -1, -2, float("nan")])
def test_a_live_transport_refuses_a_timeout_that_is_not_positive(kind, timeout):
    with pytest.raises(ValueError, match="timeout must be None or positive"):
        _transport(kind, timeout=timeout)
