"""Tests for the asyncio-native transport (``repro.rmi.aio``).

Covers the dispatch surface (sync, coroutine, and ``@blocking``
handlers), the failure modes (dead endpoints, missing objects,
deadline, fault hooks), the loop-safety contract (wait guards on loop
threads), the in-flight window, batcher coalescing on the loop drain
discipline, eager dispatch of messages that cannot suspend, and the
end-to-end runtime integration
(``ElasticRuntime.local(transport="asyncio")``).
"""

import asyncio
import concurrent.futures
import contextvars
import os
import sys
import threading
import time

import pytest

from repro.errors import ApplicationError, ConnectError, RemoteError
from repro.rmi.aio import (
    DEFAULT_INFLIGHT_WINDOW,
    AsyncioTransport,
    blocking,
    loop_runtime,
)
from repro.rmi.batching import RequestBatcher
from repro.rmi.cpu import cpu_bound
from repro.obs import Observability
from repro.rmi.fastpath import marshal_call, unmarshal_call, unmarshal_result
from repro.rmi.future import gather
from repro.rmi.remote import Remote, Skeleton, Stub
from repro.rmi.transport import BatchRequest, Request, Response, ThreadedTransport

from tests.rmi.test_transport import _wait_for


class Service(Remote):
    """One remote class, three dispatch styles."""

    def __init__(self):
        self.offload_threads = set()

    def double(self, n):
        return 2 * n

    async def adouble(self, n):
        return 2 * n

    @blocking
    def nap(self, seconds):
        self.offload_threads.add(threading.current_thread().name)
        time.sleep(seconds)
        return "rested"

    def explode(self):
        raise ValueError("kaboom")


def exported(transport, impl=None):
    endpoint = transport.add_endpoint("server")
    skeleton = Skeleton(impl or Service(), transport, endpoint.endpoint_id)
    return endpoint, skeleton


@pytest.fixture
def transport():
    t = AsyncioTransport()
    yield t
    t.shutdown()


class TestEnvConfig:
    def test_default_window(self, transport):
        assert transport.inflight_limit == DEFAULT_INFLIGHT_WINDOW

    def test_blocking_marker(self):
        assert getattr(Service.nap, "__ermi_blocking__", False)
        assert not getattr(Service.double, "__ermi_blocking__", False)


class TestDispatch:
    def test_sync_method_roundtrip(self, transport):
        _, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        assert stub.double(21) == 42

    def test_coroutine_method_awaited_on_loop(self, transport):
        _, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        assert stub.adouble(21) == 42

    def test_blocking_method_offloaded(self, transport):
        impl = Service()
        _, skeleton = exported(transport, impl)
        stub = Stub(transport, skeleton.ref())
        assert stub.nap(0.01) == "rested"
        # The marked method ran on its member's pool, not the loop thread.
        assert impl.offload_threads
        assert all(
            name.startswith("erm-server_")
            for name in impl.offload_threads
        )

    def test_application_error_propagates(self, transport):
        _, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        with pytest.raises(ApplicationError, match="kaboom"):
            stub.explode()

    def test_blocking_calls_overlap_on_one_loop(self, transport):
        """Two 150 ms sleeps through one event loop finish in well under
        300 ms: the member's pool gives real concurrency."""
        _, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        started = time.monotonic()
        futures = [stub.invoke_async("nap", 0.15) for _ in range(2)]
        assert gather(futures) == ["rested", "rested"]
        assert time.monotonic() - started < 0.29


class TestFailureModes:
    def test_killed_endpoint_raises_connect_error(self, transport):
        endpoint, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        transport.kill(endpoint.endpoint_id)
        with pytest.raises(ConnectError):
            stub.double(1)

    def test_missing_object_raises_connect_error(self, transport):
        endpoint = transport.add_endpoint("empty")
        with pytest.raises(ConnectError):
            transport.invoke(
                endpoint.endpoint_id, Request("nope", "m", b"")
            )

    def test_dispatch_deadline_raises_remote_error(self):
        transport = AsyncioTransport(timeout=0.05)
        try:
            endpoint = transport.add_endpoint("slow")

            async def stall(request):
                await asyncio.sleep(10.0)
                return Response(kind="result", payload=request.payload)

            endpoint.export("o", lambda request: stall(request))
            with pytest.raises(RemoteError, match="timed out"):
                transport.invoke(endpoint.endpoint_id, Request("o", "m", b""))
        finally:
            transport.shutdown()

    def test_fault_hook_consulted_per_message(self, transport):
        endpoint, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        seen = []

        def hook(endpoint_id, request):
            seen.append(request.method)
            if request.method == "explode_link":
                raise ConnectError("injected")

        transport.install_fault_hook(hook)
        assert stub.double(3) == 6
        assert seen == ["double"]
        object_id = skeleton.ref().object_id
        with pytest.raises(ConnectError, match="injected"):
            transport.invoke(
                endpoint.endpoint_id,
                Request(object_id, "explode_link", b""),
            )

    def test_closed_transport_refuses_new_calls(self):
        transport = AsyncioTransport()
        endpoint, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        assert stub.double(1) == 2
        transport.shutdown()
        with pytest.raises(ConnectError, match="shut down"):
            stub.double(1)


class TestLoopSafety:
    def test_wait_guard_raises_on_loop_thread(self, transport):
        failure = []
        done = threading.Event()

        def on_loop():
            try:
                transport.wait_guard()
            except RemoteError as exc:
                failure.append(exc)
            done.set()

        transport.schedule(on_loop)
        assert done.wait(timeout=5.0)
        assert failure and "deadlock" in str(failure[0])

    def test_wait_guard_passes_off_loop(self, transport):
        transport.wait_guard()  # must not raise

    def test_sync_bridge_from_loop_thread_fails_fast(self, transport):
        endpoint, skeleton = exported(transport)
        outcome = []
        done = threading.Event()

        def on_loop():
            try:
                transport.invoke(
                    endpoint.endpoint_id, Request("x", "double", b"")
                )
            except RemoteError as exc:
                outcome.append(exc)
            done.set()

        transport.schedule(on_loop)
        assert done.wait(timeout=5.0)
        assert outcome, "invoke() on the loop thread must raise, not hang"

    def test_shared_loop_runtime_is_a_singleton(self):
        assert loop_runtime() is loop_runtime()
        assert loop_runtime().thread.daemon


class TestInflightWindow:
    def test_window_floor_is_one(self):
        transport = AsyncioTransport(inflight_limit=0)
        try:
            assert transport.inflight_limit == 1
        finally:
            transport.shutdown()

    def test_window_bounds_concurrent_dispatches(self):
        transport = AsyncioTransport(timeout=None, inflight_limit=4)
        try:
            endpoint = transport.add_endpoint("parked")
            gate = asyncio.Event()

            async def park(request):
                await gate.wait()
                return Response(kind="result", payload=request.payload)

            endpoint.export("o", lambda request: park(request))
            done = []
            lock = threading.Lock()

            def on_done(result, error):
                with lock:
                    done.append((result, error))

            for seq in range(10):
                transport.submit(
                    endpoint.endpoint_id, Request("o", "m", b""), on_done
                )
            deadline = time.monotonic() + 5.0
            while transport.inflight < 4 and time.monotonic() < deadline:
                time.sleep(0.005)
            # The semaphore admits exactly the window, never more.
            assert transport.inflight == 4
            assert transport.inflight_hwm == 4
            transport.schedule(gate.set)
            while len(done) < 10 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(done) == 10
            assert all(error is None for _, error in done)
            assert transport.inflight == 0
        finally:
            transport.shutdown()


class TestObservability:
    def test_inflight_gauges_and_lag_histogram(self, transport):
        from repro.obs import Observability

        obs = Observability()
        transport.set_obs(obs)
        _, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        futures = [stub.invoke_async("adouble", i) for i in range(100)]
        gather(futures)
        assert obs.registry.gauge("rmi.aio.inflight_hwm").value >= 1
        assert obs.registry.gauge("rmi.aio.inflight").value == 0
        # The lag sampler fires every 50 ms while obs is attached.
        deadline = time.monotonic() + 5.0
        lag = obs.registry.histogram("rmi.aio.loop_lag_ms")
        while lag.count == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert lag.count >= 1


class TestBatcherOnLoop:
    def test_loop_drain_coalesces(self, transport):
        _, skeleton = exported(transport)
        batcher = RequestBatcher(transport, max_batch=8, linger=0.0)
        stub = Stub(transport, skeleton.ref(), batcher=batcher)
        futures = [stub.invoke_async("double", i) for i in range(8)]
        assert gather(futures) == [2 * i for i in range(8)]
        assert batcher.stats.batches >= 1
        assert batcher.stats.entries == 8

    def test_sync_call_through_batcher(self, transport):
        _, skeleton = exported(transport)
        batcher = RequestBatcher(transport, max_batch=4, linger=0.0)
        stub = Stub(transport, skeleton.ref(), batcher=batcher)
        assert stub.double(5) == 10


class TestFanout:
    def test_thousand_inflight_calls(self, transport):
        _, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        futures = [stub.invoke_async("adouble", i) for i in range(1000)]
        assert gather(futures) == [2 * i for i in range(1000)]

    def test_mixed_sync_and_async_handlers(self, transport):
        _, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        futures = [
            stub.invoke_async("double" if i % 2 else "adouble", i)
            for i in range(64)
        ]
        assert gather(futures) == [2 * i for i in range(64)]


# ----------------------------------------------------------------------
# one task per batch: plain entries run inside the batch's own task
# ----------------------------------------------------------------------

_SEEN = contextvars.ContextVar("test_aio_seen", default=None)


class Mixed(Remote):
    """Every dispatch style one batch can hold.  Picklable: ``@cpu_bound``
    calls ship a snapshot of it to a worker process."""

    def double(self, n):
        return 2 * n

    async def adouble(self, n):
        await asyncio.sleep(0)
        return 2 * n

    @blocking
    def nap(self, seconds):
        time.sleep(seconds)
        return "rested"

    @cpu_bound
    def pid(self):
        return os.getpid()

    def explode(self):
        raise ValueError("kaboom")

    def mark(self, value):
        """The ContextVar as this entry found it, then set for whoever
        (wrongly) shares this entry's context."""
        seen = _SEEN.get()
        _SEEN.set(value)
        return seen

    def later(self, n):
        """A plain method that hands back an awaitable."""
        return self.adouble(n)

    def scoped(self, value):
        """A plain method that hands back a coroutine which sets the
        ContextVar across an await, then resets it."""
        return self._scoped(value)

    async def _scoped(self, value):
        token = _SEEN.set(value)
        try:
            await asyncio.sleep(0)
            return _SEEN.get()
        finally:
            _SEEN.reset(token)

    async def whoami(self):
        """The task this body runs in, read before its first await."""
        task = asyncio.current_task()
        await asyncio.sleep(0)
        return id(task)

    async def impatient(self):
        """A handler-level timeout, entered before the first await: it
        binds to whatever task runs this body."""
        async with asyncio.timeout(0.02):
            await asyncio.sleep(5.0)

    async def park(self):
        await asyncio.Event().wait()


def request_for(skeleton, method, *args):
    return Request(skeleton.object_id, method, marshal_call(args, {}), "t")


def outcome(response):
    """``(kind, value)`` of one reply; an error's value is the exception."""
    if response.kind in ("result", "error"):
        return response.kind, unmarshal_result(response.payload)
    return response.kind, response.value


class RunService(Remote):
    """Plain methods that look at their own skeleton while a run of them
    is served (``skeleton`` is set once it is exported)."""

    def __init__(self):
        self.skeleton = None
        self.seen = []  # (is_drained, pending) as each double() found them
        self.gate = threading.Event()

    def double(self, n):
        self.seen.append((self.skeleton.is_drained, self.skeleton.pending))
        return 2 * n

    def explode(self):
        raise ValueError("kaboom")

    def leave(self):
        self.skeleton.start_drain()

    def gated(self, n):
        """A plain method that hands back an awaitable, done once the
        gate opens."""
        return self._wait(n)

    async def _wait(self, n):
        while not self.gate.is_set():
            await asyncio.sleep(0.001)
        return 2 * n


class RunDispatchPromises:
    """What serving a batch's plain entries in one pass
    (``Skeleton.handle_run``) keeps, on either live transport.  Every
    batch here is one run: plain methods of one skeleton."""

    # Calls still pending while one call's coroutine waits: on the loop
    # only that call, whose task holds its slot; on a worker the whole
    # run, which drives the coroutine to its end in place.
    held_while_waiting: int

    def serve(self, transport, obs=None):
        endpoint = transport.add_endpoint("server")
        impl = RunService()
        impl.skeleton = Skeleton(impl, transport, endpoint.endpoint_id, obs=obs)
        return endpoint.endpoint_id, impl, impl.skeleton

    def send(self, transport, endpoint_id, skeleton, *calls):
        batch = BatchRequest(entries=tuple(
            request_for(skeleton, *call) for call in calls
        ))
        return transport.invoke_batch(endpoint_id, batch).entries

    def test_statistics_stay_per_method(self, transport):
        endpoint_id, _, skeleton = self.serve(transport)
        replies = self.send(
            transport, endpoint_id, skeleton,
            ("double", 1), ("explode",), ("double", 2), ("explode",),
            ("double", 3),
        )
        assert [r.kind for r in replies] == [
            "result", "error", "result", "error", "result",
        ]
        stats = skeleton.stats.snapshot()
        assert (stats["double"].calls, stats["double"].errors) == (3, 0)
        assert (stats["explode"].calls, stats["explode"].errors) == (2, 2)
        assert skeleton.pending == 0

    def test_a_drain_started_inside_a_run_waits_for_the_rest_of_it(
        self, transport
    ):
        endpoint_id, impl, skeleton = self.serve(transport)
        replies = self.send(
            transport, endpoint_id, skeleton,
            ("double", 1), ("leave",), ("double", 2), ("double", 3),
        )
        assert [outcome(r) for r in replies] == [
            ("result", 2), ("result", None), ("result", 4), ("result", 6),
        ]
        # The run was admitted whole: its later calls still ran, and the
        # member reported drained only once all four replies were built.
        assert impl.seen == [(False, 4)] * 3
        assert skeleton.is_drained and skeleton.pending == 0
        replies = self.send(
            transport, endpoint_id, skeleton, ("double", 4), ("double", 5)
        )
        assert [r.kind for r in replies] == ["drained", "drained"]
        assert skeleton.stats.snapshot()["double"].calls == 3

    def test_redirects_are_decided_per_entry_before_admission(self, transport):
        endpoint_id, impl, skeleton = self.serve(transport)
        elsewhere = Skeleton(RunService(), transport, endpoint_id).ref()
        skeleton.redirect_policy = lambda request: (
            elsewhere if unmarshal_call(request.payload)[0][0] % 2 == 0
            else None
        )
        replies = self.send(
            transport, endpoint_id, skeleton, *(("double", n) for n in range(6))
        )
        assert [r.kind for r in replies] == ["redirect", "result"] * 3
        assert {replies[n].value for n in (0, 2, 4)} == {elsewhere}
        assert [outcome(replies[n]) for n in (1, 3, 5)] == [
            ("result", 2), ("result", 6), ("result", 10),
        ]
        # Only the three served calls were ever pending, or counted.
        assert impl.seen == [(False, 3)] * 3
        assert skeleton.stats.snapshot()["double"].calls == 3
        assert skeleton.pending == 0

    def test_a_coroutine_handed_back_holds_its_slot_until_it_replies(
        self, transport
    ):
        endpoint_id, impl, skeleton = self.serve(transport)
        done = []
        sender = threading.Thread(target=lambda: done.append(self.send(
            transport, endpoint_id, skeleton,
            ("double", 1), ("gated", 2), ("double", 3),
        )))
        sender.start()
        try:
            assert _wait_for(lambda: skeleton.pending == self.held_while_waiting)
            assert not done
            assert "gated" not in skeleton.stats.snapshot()
        finally:
            impl.gate.set()
            sender.join(timeout=5.0)
        assert [outcome(r) for r in done[0]] == [
            ("result", 2), ("result", 4), ("result", 6),
        ]
        assert skeleton.stats.snapshot()["gated"].calls == 1
        assert skeleton.pending == 0

    def test_each_call_of_a_run_is_observed(self, transport):
        obs = Observability()
        endpoint_id, _, skeleton = self.serve(transport, obs=obs)
        calls = [
            ("double", 1), ("explode",), ("double", 2), ("explode",),
            ("double", 3), ("double", 4),
        ]
        self.send(transport, endpoint_id, skeleton, *calls)
        events = [e.field_dict() for e in obs.tracer.events("skeleton", "invoke")]
        assert [(e["method"], e["error"]) for e in events] == [
            (name, name == "explode") for name, *_ in calls
        ]
        latency = f"rmi.server.latency.{skeleton.object_id}"
        assert obs.registry.histogram(f"{latency}.double").count == 4
        assert obs.registry.histogram(f"{latency}.explode").count == 2
        assert obs.registry.counter("rmi.server.errors").value == 2


class TestThreadedBatchDispatch(RunDispatchPromises):
    """The promises on a worker: one worker per endpoint, so a batch is
    one chunk and its entries one run."""

    held_while_waiting = 3

    @pytest.fixture
    def transport(self):
        t = ThreadedTransport(workers_per_endpoint=1)
        yield t
        t.shutdown()


class TestBatchDispatch(RunDispatchPromises):
    held_while_waiting = 1

    def test_every_kind_of_entry_replies_in_entry_order(self, transport):
        endpoint, skeleton = exported(transport, Mixed())
        leaving = Skeleton(Mixed(), transport, endpoint.endpoint_id)
        leaving.start_drain()
        batch = BatchRequest(entries=(
            request_for(skeleton, "double", 1),
            request_for(skeleton, "adouble", 2),
            request_for(skeleton, "nap", 0.01),
            request_for(skeleton, "pid"),
            Request("no-such-object", "double", marshal_call((3,), {}), "t"),
            request_for(skeleton, "explode"),
            request_for(leaving, "double", 4),
            request_for(skeleton, "no_such_method"),
            request_for(skeleton, "double", 5),
        ))
        replies = [
            outcome(r)
            for r in transport.invoke_batch(endpoint.endpoint_id, batch).entries
        ]
        kinds = [kind for kind, _ in replies]
        assert kinds == [
            "result", "result", "result", "result", "unresolved",
            "error", "drained", "error", "result",
        ]
        assert [replies[i][1] for i in (0, 1, 2, 8)] == [2, 4, "rested", 10]
        assert replies[3][1] != os.getpid()  # served by a worker process
        assert replies[4][1] == "no-such-object"
        assert isinstance(replies[5][1], ValueError)
        # Statistics stay per logical call, inline or not.
        stats = skeleton.stats.snapshot()
        assert stats["double"].calls == 2
        assert stats["explode"].errors == 1
        assert skeleton.pending == 0

    def test_blocking_entries_of_one_batch_overlap(self, transport):
        endpoint, skeleton = exported(transport, Mixed())
        transport.invoke(endpoint.endpoint_id, request_for(skeleton, "nap", 0))
        batch = BatchRequest(entries=tuple(
            request_for(skeleton, "nap", 0.05) for _ in range(4)
        ))
        started = time.monotonic()
        replies = transport.invoke_batch(endpoint.endpoint_id, batch).entries
        assert time.monotonic() - started < 0.15
        assert [outcome(r) for r in replies] == [("result", "rested")] * 4

    def test_async_def_entries_run_in_tasks_of_their_own(self, transport):
        """``asyncio.current_task()`` and ``asyncio.timeout()`` in an
        ``async def`` method bind to that entry's task: its timeout fails
        the entry, not the batch and its neighbours."""
        endpoint, skeleton = exported(transport, Mixed())
        batch = BatchRequest(entries=(
            request_for(skeleton, "double", 1),
            request_for(skeleton, "whoami"),
            request_for(skeleton, "impatient"),
            request_for(skeleton, "whoami"),
            request_for(skeleton, "double", 2),
        ))
        replies = [
            outcome(r)
            for r in transport.invoke_batch(endpoint.endpoint_id, batch).entries
        ]
        assert replies[0] == ("result", 2)
        assert replies[4] == ("result", 4)
        assert replies[1][0] == replies[3][0] == "result"
        assert replies[1][1] != replies[3][1]  # two entries, two tasks
        kind, error = replies[2]
        assert kind == "error" and isinstance(error, TimeoutError)

    def test_plain_entries_do_not_share_a_context(self, transport):
        endpoint, skeleton = exported(transport, Mixed())
        batch = BatchRequest(entries=tuple(
            request_for(skeleton, "mark", i) for i in range(4)
        ))
        replies = transport.invoke_batch(endpoint.endpoint_id, batch).entries
        assert [outcome(r) for r in replies] == [("result", None)] * 4

    def test_plain_method_returning_an_awaitable(self, transport):
        endpoint, skeleton = exported(transport, Mixed())
        batch = BatchRequest(entries=(
            request_for(skeleton, "later", 1),
            request_for(skeleton, "double", 2),
            request_for(skeleton, "later", 3),
        ))
        replies = transport.invoke_batch(endpoint.endpoint_id, batch).entries
        assert [outcome(r) for r in replies] == [
            ("result", 2), ("result", 4), ("result", 6),
        ]
        stub = Stub(transport, skeleton.ref())
        assert stub.later(4) == 8  # and unbatched

    def test_raw_exported_callables(self, transport):
        """Handlers exported without a skeleton: a callable returning a
        ``Response`` is simply done, one returning a coroutine gets a
        task."""
        endpoint = transport.add_endpoint("raw")

        async def slow(request):
            await asyncio.sleep(0)
            return Response(kind="result", payload=b"async")

        endpoint.export("sync", lambda r: Response(kind="result", payload=b"sync"))
        endpoint.export("async", lambda r: slow(r))
        batch = BatchRequest(entries=(
            Request("async", "m", b""), Request("sync", "m", b""),
        ))
        replies = transport.invoke_batch(endpoint.endpoint_id, batch).entries
        assert [r.payload for r in replies] == [b"async", b"sync"]

    def test_an_all_plain_batch_costs_no_task(self, transport):
        """Nor does a batch whose only waiting entries are ``@blocking``:
        they are jobs on the member's pool, which fill the batch's
        record."""
        endpoint, skeleton = exported(transport, Mixed())
        plain = tuple(request_for(skeleton, "double", i) for i in range(16))
        blocking = (
            request_for(skeleton, "double", 1), request_for(skeleton, "nap", 0),
            request_for(skeleton, "double", 3), request_for(skeleton, "nap", 0),
        )
        for entries, expected in (
            (plain, [("result", 2 * i) for i in range(16)]),
            (blocking, [
                ("result", 2), ("result", "rested"),
                ("result", 6), ("result", "rested"),
            ]),
        ):
            batch = BatchRequest(entries=entries)
            transport.invoke_batch(endpoint.endpoint_id, batch)  # warm
            with counting_tasks() as created:
                replies = transport.invoke_batch(endpoint.endpoint_id, batch)
            assert [outcome(r) for r in replies.entries] == expected
            assert created == []
        assert window_is_empty(transport)

    def test_a_batch_costs_one_task_per_entry_that_suspends(self, transport):
        """Walked where it was sent, a batch whose entries suspend costs
        one task per such entry and no task of its own: its record
        waits on theirs."""
        endpoint, skeleton = exported(transport, Mixed())
        batch = BatchRequest(entries=(
            request_for(skeleton, "double", 1),
            request_for(skeleton, "adouble", 2),
            request_for(skeleton, "double", 3),
            request_for(skeleton, "adouble", 4),
        ))
        with counting_tasks() as created:
            replies = transport.invoke_batch(endpoint.endpoint_id, batch)
        assert [outcome(r) for r in replies.entries] == [
            ("result", 2), ("result", 4), ("result", 6), ("result", 8),
        ]
        assert len(created) == 2  # three, with the batch's own, before


class counting_tasks:
    """Collects every task the shared loop creates while entered."""

    def __enter__(self):
        self.loop, self.created = loop_runtime().loop, []

        def counting(loop, coro, **kwargs):
            task = asyncio.Task(coro, loop=loop, **kwargs)
            self.created.append(task)
            return task

        self.loop.set_task_factory(counting)
        return self.created

    def __exit__(self, *exc_info):
        self.loop.set_task_factory(None)


class TestBatchFailsAsAWhole:
    """A batch with one parked entry and one long ``@blocking`` entry on
    its member's pool: whatever settles the batch's record fails every
    entry's call once, and no task is left behind."""

    def parked_batch(self, transport):
        endpoint, skeleton = exported(transport, Mixed())
        batcher = RequestBatcher(transport, max_batch=8, linger=0.0)
        futures = [
            batcher.submit(endpoint.endpoint_id, request_for(skeleton, *call))
            for call in (
                ("explode",), ("park",), ("explode",), ("nap", 0.5), ("whoami",),
            )
        ]
        return skeleton, futures

    def test_shutdown_fails_every_entry(self):
        transport = AsyncioTransport()
        try:
            skeleton, futures = self.parked_batch(transport)
            assert not futures[0].wait(timeout=0.05)  # flown, and parked
            # park's task, and nap on a worker of the member's pool
            assert _wait_for(lambda: skeleton.pending == 2)
        finally:
            transport.shutdown()
        for future in futures:
            assert isinstance(future.exception(timeout=5.0), ConnectError)
        assert _wait_for(lambda: not transport._tasks)
        assert _wait_for(lambda: skeleton.pending == 0)  # once nap returns
        assert window_is_empty(transport)

    def test_deadline_fails_every_entry(self):
        transport = AsyncioTransport(timeout=0.05)
        try:
            skeleton, futures = self.parked_batch(transport)
            for future in futures:
                error = future.exception(timeout=5.0)
                assert isinstance(error, RemoteError)
                assert "timed out" in str(error)
            assert _wait_for(lambda: not transport._tasks)
            assert _wait_for(lambda: skeleton.pending == 0)  # once nap returns
            assert window_is_empty(transport)
        finally:
            transport.shutdown()


class TestWaveOnLoop:
    def test_one_gathered_wave_wakes_the_loop_once(self, transport):
        """64 calls over 4 members: the waiter's hook sweeps all four
        queues in one loop callback, and the sweep's ``submit_batch``
        calls start their dispatches without hopping to the loop they
        are already on."""
        batcher = RequestBatcher(transport, max_batch=32, linger=0.0)
        stubs = []
        for i in range(4):
            endpoint = transport.add_endpoint(f"member-{i}")
            skeleton = Skeleton(Mixed(), transport, endpoint.endpoint_id)
            stubs.append(Stub(transport, skeleton.ref(), batcher=batcher))
        wave = [(stubs[i % 4], i) for i in range(64)]
        gather([stub.invoke_async("double", i) for stub, i in wave])  # warm
        loop = loop_runtime().loop
        plain = loop.call_soon_threadsafe
        wakeups = []

        def counting(callback, *args, **kwargs):
            wakeups.append(callback)
            return plain(callback, *args, **kwargs)

        before = batcher.stats.batches
        loop.call_soon_threadsafe = counting
        try:
            futures = [stub.invoke_async("double", i) for stub, i in wave]
            assert gather(futures, timeout=10.0) == [2 * i for i in range(64)]
        finally:
            del loop.call_soon_threadsafe
        assert batcher.stats.batches - before == 4
        assert len(wakeups) == 1  # four kicks and four re-posts, before

    def test_submit_on_the_loop_thread_starts_at_once(self, transport):
        """``submit`` of a plain call from the loop thread runs it to its
        completion before returning: no task, no self-pipe write.
        ``schedule`` still runs its callback on a later turn, but
        without writing to the self-pipe."""
        endpoint, skeleton = exported(transport, Mixed())
        loop = loop_runtime().loop
        order, finished = [], threading.Event()

        def on_loop():
            plain = loop.call_soon_threadsafe
            loop.call_soon_threadsafe = lambda *a, **k: order.append("pipe")
            try:
                with counting_tasks() as created:
                    transport.submit(
                        endpoint.endpoint_id, request_for(skeleton, "double", 2),
                        lambda response, error: order.append(outcome(response)),
                    )
                    order.append(len(created))
                    transport.schedule(
                        lambda: (order.append("scheduled"), finished.set())
                    )
                    order.append("returned")
            finally:
                loop.call_soon_threadsafe = plain

        transport.schedule(on_loop)
        assert finished.wait(timeout=5.0)
        assert order == [("result", 4), 0, "returned", "scheduled"]


# ----------------------------------------------------------------------
# eager dispatch: a message that cannot suspend runs where it was sent
# ----------------------------------------------------------------------


def on_the_loop(fn):
    """Run ``fn()`` in one loop callback and return what it returned."""
    done: concurrent.futures.Future = concurrent.futures.Future()

    def run():
        try:
            done.set_result(fn())
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            done.set_exception(exc)

    loop_runtime().call_soon(run)
    return done.result(timeout=5.0)


class TestEagerDispatch:
    def test_a_deep_backlog_on_the_loop_settles(self, transport):
        """20,000 calls queued in one loop callback at two per batch: the
        sweep serves every batch from its own loop.  A completion inside
        that sweep that swept again would nest one sweep per batch,
        until a RecursionError left the rest unresolved."""
        _, skeleton = exported(transport, Mixed())
        batcher = RequestBatcher(transport, max_batch=2)
        stub = Stub(transport, skeleton.ref(), batcher=batcher)
        loop = loop_runtime().loop
        reported = []
        previous = loop.get_exception_handler()
        loop.set_exception_handler(lambda loop, context: reported.append(context))
        try:
            futures = on_the_loop(
                lambda: [stub.invoke_async("double", i) for i in range(20_000)]
            )
            assert gather(futures, timeout=30.0) == [
                2 * i for i in range(20_000)
            ]
        finally:
            loop.set_exception_handler(previous)
        assert reported == []
        assert batcher.stats.batches == 10_000

    def test_unbatched_async_def_calls_keep_their_own_task(self, transport):
        _, skeleton = exported(transport, Mixed())
        stub = Stub(transport, skeleton.ref())
        with pytest.raises(ApplicationError) as raised:
            stub.impatient()
        assert isinstance(raised.value.cause, TimeoutError)
        first, second = stub.whoami(), stub.whoami()
        assert id(None) not in (first, second)

    def test_unbatched_blocking_call_keeps_its_deadline(self):
        transport = AsyncioTransport(timeout=0.05)
        try:
            _, skeleton = exported(transport, Mixed())
            stub = Stub(transport, skeleton.ref())
            with pytest.raises(RemoteError, match="timed out"):
                stub.nap(0.3)
        finally:
            transport.shutdown()

    def test_unbatched_plain_calls_do_not_share_a_context(self, transport):
        """Two calls sent from one loop callback each run in a context of
        their own, as their tasks would have given them."""
        endpoint, skeleton = exported(transport, Mixed())
        replies = []

        def send_two():
            for value in (1, 2):
                transport.submit(
                    endpoint.endpoint_id, request_for(skeleton, "mark", value),
                    lambda response, error: replies.append(outcome(response)),
                )
            return _SEEN.get()

        assert on_the_loop(send_two) is None
        assert replies == [("result", None), ("result", None)]

    def test_a_handed_back_coroutine_keeps_its_context(self, transport):
        """An unbatched plain call whose method hands back a coroutine:
        the coroutine runs in one context from its first step to its
        last (a ContextVar token set before its await resets after it),
        the sender's context is untouched, and the call costs one task:
        the coroutine's, which its record waits on."""
        endpoint, skeleton = exported(transport, Mixed())
        replies = []

        def send():
            _SEEN.set("sender")
            transport.submit(
                endpoint.endpoint_id, request_for(skeleton, "scoped", "call"),
                lambda response, error: replies.append(outcome(response)),
            )
            return _SEEN.get()

        with counting_tasks() as created:
            assert on_the_loop(send) == "sender"
            assert _wait_for(lambda: replies)
        assert replies == [("result", "call")]
        assert len(created) == 1  # two, with the one its reply waited in

    def test_an_unbatched_async_def_call_costs_one_task(self, transport):
        """An unbatched ``async def`` call costs what ``scoped`` above
        costs: the task its coroutine runs in, in a context of its own.
        Its message's deadline, window slot and completion are its
        record's, which needs no task."""
        endpoint, skeleton = exported(transport, Mixed())
        replies = []

        def send():
            transport.submit(
                endpoint.endpoint_id, request_for(skeleton, "adouble", 3),
                lambda response, error: replies.append(outcome(response)),
            )

        with counting_tasks() as created:
            on_the_loop(send)
            assert _wait_for(lambda: replies)
        assert replies == [("result", 6)]
        assert len(created) == 1  # two, before
        assert window_is_empty(transport)

    def test_parked_calls_hold_one_task_each(self):
        """512 unbatched ``async def`` calls parked on the loop hold 512
        live tasks, not 1,024, and 512 calls of the window; shutdown
        completes each once, with a ``ConnectError``, and every slot,
        the skeleton's and the window's, comes back.  (Tasks, not
        threads: nothing here starts an OS thread.)"""
        transport = AsyncioTransport()
        outcomes = []
        try:
            endpoint, skeleton = exported(transport, Mixed())

            def send():
                for i in range(512):
                    transport.submit(
                        endpoint.endpoint_id, request_for(skeleton, "park"),
                        lambda reply, error, i=i: outcomes.append((i, error)),
                    )

            with counting_tasks() as created:
                on_the_loop(send)
            assert _wait_for(lambda: skeleton.pending == 512)
            assert len(created) == 512
            assert not any(task.done() for task in created)
            assert transport.inflight == 512
            assert outcomes == []
        finally:
            transport.shutdown()
        assert _wait_for(lambda: len(outcomes) == 512)
        assert sorted(i for i, _ in outcomes) == list(range(512))
        assert all(isinstance(error, ConnectError) for _, error in outcomes)
        assert _wait_for(lambda: skeleton.pending == 0)
        assert all(task.cancelled() for task in created)
        assert window_is_empty(transport)
        assert not _wait_for(lambda: len(outcomes) > 512, timeout=0.1)

    def test_a_call_sent_inside_a_task_gets_a_task(self, transport):
        endpoint, skeleton = exported(transport, Mixed())
        replies = []

        async def send():
            transport.submit(
                endpoint.endpoint_id, request_for(skeleton, "double", 3),
                lambda response, error: replies.append(outcome(response)),
            )

        with counting_tasks() as created:
            on_the_loop(lambda: loop_runtime().loop.create_task(send()))
            assert _wait_for(lambda: replies == [("result", 6)])
        assert len(created) == 2  # the sender's, and the call's

    def test_shutdown_inside_an_eager_batch_still_completes_it(self):
        """A batch stepped eagerly whose plain entry shuts the transport
        down, and which then waits on a task of its own: the task it
        hands the rest to is cancelled only after its first step, so
        the batch still completes, with the shutdown's ConnectError."""
        transport = AsyncioTransport()

        class Closer(Mixed):
            def close(self):
                transport.shutdown()

        try:
            endpoint, skeleton = exported(transport, Closer())
            outcome_of, finished = [], threading.Event()

            def on_done(reply, error):
                outcome_of.append(error)
                finished.set()

            transport.submit_batch(
                endpoint.endpoint_id,
                BatchRequest(entries=(
                    request_for(skeleton, "close"),
                    request_for(skeleton, "park"),
                )),
                on_done,
            )
            assert finished.wait(timeout=5.0)
            assert isinstance(outcome_of[0], ConnectError)
            assert _wait_for(lambda: skeleton.pending == 0)
            assert _wait_for(lambda: not transport._tasks)
        finally:
            transport.shutdown()

    @pytest.mark.parametrize("method", ["double", "adouble"])
    def test_a_completion_callback_that_raises_is_reported(
        self, transport, method
    ):
        """Eager (``double``) or in a task (``adouble``), a completion
        that raises reaches the loop's exception handler, and the next
        call is still served."""
        endpoint, skeleton = exported(transport, Mixed())
        loop = loop_runtime().loop
        reported = []
        previous = loop.get_exception_handler()
        loop.set_exception_handler(lambda loop, context: reported.append(context))

        def explode(response, error):
            raise ValueError("completer bug")

        try:
            transport.submit(
                endpoint.endpoint_id, request_for(skeleton, method, 1), explode
            )
            assert _wait_for(lambda: reported)
        finally:
            loop.set_exception_handler(previous)
        [context] = reported
        assert context["message"] == "ermi aio completion callback failed"
        assert str(context["exception"]) == "completer bug"
        assert Stub(transport, skeleton.ref()).double(4) == 8


# ----------------------------------------------------------------------
# offloaded dispatch: a @blocking call is one job on its member's pool
# ----------------------------------------------------------------------


class Gated(Remote):
    """A member whose ``@blocking`` ``hold`` keeps a worker of its pool
    until its gate opens; ``whoami`` is a plain call."""

    def __init__(self, name="gated"):
        self.name = name
        self.gate = threading.Event()
        self.held = []

    def whoami(self):
        return self.name

    @blocking
    def hold(self):
        self.held.append(threading.current_thread().name)
        self.gate.wait(timeout=10.0)
        return self.name


class posted_to_loop:
    """Collects ``(thread name, callback)`` for each callback other
    threads post to the shared loop while entered."""

    def __enter__(self):
        self.loop, self.posted = loop_runtime().loop, []
        plain = self.loop.call_soon_threadsafe

        def counting(callback, *args, **kwargs):
            self.posted.append((threading.current_thread().name, callback))
            return plain(callback, *args, **kwargs)

        self.loop.call_soon_threadsafe = counting
        return self.posted

    def __exit__(self, *exc_info):
        del self.loop.call_soon_threadsafe


def pool_is_idle(transport, endpoint):
    """Every job the member's pool was given has left it: run, or
    skipped because its call was settled while it queued."""
    stats = transport.dispatch_stats(endpoint.endpoint_id)
    return stats["queued"] == 0 and stats["busy"] == 0


def window_is_empty(transport):
    """No call in flight, every slot of the window free, nothing left
    to settle."""
    return (
        transport.inflight == 0
        and transport._free == transport.inflight_limit
        and not transport._calls
    )


class TestOffloadedDispatch:
    def test_an_unbatched_blocking_call_costs_no_task(self, transport):
        impl = Service()
        _, skeleton = exported(transport, impl)
        stub = Stub(transport, skeleton.ref())
        assert stub.nap(0) == "rested"  # warm
        with counting_tasks() as created:
            assert stub.nap(0) == "rested"
        assert created == []  # one, before
        assert all(
            name.startswith("erm-server_")
            for name in impl.offload_threads
        )
        assert window_is_empty(transport)

    def test_calls_from_another_thread_never_visit_the_loop(self, transport):
        """An unbatched ``@blocking`` call submitted off the loop goes from
        the caller to its member's pool and is completed by the worker:
        no callback posted to the loop, no task, and the window ends
        empty.  The warm-up call settles while the loop is held, before
        the loop runs the timer arming it asked for: the timer is armed
        all the same."""
        impl = Service()
        endpoint = transport.add_endpoint("loop-free")
        skeleton = Skeleton(impl, transport, endpoint.endpoint_id)
        stub = Stub(transport, skeleton.ref())
        loop_runtime().loop.call_soon_threadsafe(time.sleep, 0.05)
        assert stub.nap(0) == "rested"  # warm: pool, workers, timer
        assert _wait_for(lambda: transport._timer is not None)
        with posted_to_loop() as posted, counting_tasks() as created:
            futures = [stub.invoke_async("nap", 0) for _ in range(50)]
            assert gather(futures) == ["rested"] * 50
            for _ in range(50):
                assert stub.nap(0) == "rested"
        # Only this caller and this member's workers count: a worker of
        # an earlier test's pool may still be finishing its last job.
        me = threading.current_thread().name
        assert [
            (name, callback) for name, callback in posted
            if name == me or name.startswith("erm-loop-free_")
        ] == []
        assert impl.offload_threads <= {f"erm-loop-free_{i}" for i in range(4)}
        assert created == []
        assert window_is_empty(transport)
        assert transport.inflight_hwm >= 1

    def test_a_batcher_singleton_completes_on_the_loop(self, transport):
        """The batcher's sweep submits on the loop thread, and its
        completion touches loop-only state: a ``@blocking`` singleton
        runs on the member's pool and still completes on the loop."""
        endpoint, skeleton = exported(transport, Mixed())
        batcher = RequestBatcher(transport, max_batch=8)
        stub = Stub(transport, skeleton.ref(), batcher=batcher)
        completed_on = []
        plain = batcher._done

        def done(*args):
            completed_on.append(threading.current_thread())
            return plain(*args)

        batcher._done = done
        assert stub.invoke_async("nap", 0).result(timeout=5.0) == "rested"
        assert completed_on == [loop_runtime().thread]
        assert batcher.stats.entries == batcher.stats.batches == 1
        assert transport.dispatch_stats(endpoint.endpoint_id)["busy"] == 0
        assert window_is_empty(transport)

    def test_a_full_window_sends_calls_from_another_thread_to_the_loop(self):
        """The window counts hand-offs: with two slots, two calls go onto
        the pool from the caller and the rest wait on the loop, then take
        the slots the workers give back."""
        transport = AsyncioTransport(inflight_limit=2)
        impl = Gated()
        try:
            endpoint, skeleton = exported(transport, impl)
            outcomes = []
            for _ in range(6):
                transport.submit(
                    endpoint.endpoint_id, request_for(skeleton, "hold"),
                    lambda reply, error: outcomes.append(outcome(reply)),
                )
            assert _wait_for(lambda: len(impl.held) == 2)
            assert not _wait_for(lambda: len(impl.held) > 2, timeout=0.1)
            assert transport.inflight == transport.inflight_hwm == 2
            assert len(transport._waiters) == 4
            impl.gate.set()
            assert _wait_for(lambda: len(outcomes) == 6)
            assert outcomes == [("result", "gated")] * 6
            assert transport.inflight_hwm == 2
            assert _wait_for(lambda: window_is_empty(transport))
        finally:
            impl.gate.set()
            transport.shutdown()

    def test_every_call_settles_once_when_replies_and_deadlines_race(self):
        """Six threads hand off calls whose replies and 4 ms deadlines
        land together, with the interpreter switching threads every
        10 µs: each completion runs once, and the window ends empty."""
        transport = AsyncioTransport(timeout=0.004)
        endpoint, skeleton = exported(transport)
        counts, lock = {}, threading.Lock()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def caller(thread):
            for i in range(100):
                def on_done(reply, error, key=(thread, i)):
                    with lock:
                        counts[key] = counts.get(key, 0) + 1

                transport.submit(
                    endpoint.endpoint_id,
                    request_for(skeleton, "nap", 0.002 * (i % 3)), on_done,
                )

        try:
            threads = [
                threading.Thread(target=caller, args=(t,)) for t in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert _wait_for(lambda: len(counts) == 600)
            assert _wait_for(lambda: pool_is_idle(transport, endpoint))
            assert _wait_for(lambda: window_is_empty(transport))
            assert not _wait_for(
                lambda: any(n > 1 for n in counts.values()), timeout=0.1
            )
            assert skeleton.pending == 0
        finally:
            sys.setswitchinterval(previous)
            transport.shutdown()

    def test_blocking_entries_of_a_batch_cost_no_task_of_their_own(
        self, transport
    ):
        endpoint, skeleton = exported(transport, Mixed())
        batch = BatchRequest(entries=(
            request_for(skeleton, "double", 1),
            request_for(skeleton, "nap", 0),
            request_for(skeleton, "double", 3),
            request_for(skeleton, "nap", 0),
        ))
        with counting_tasks() as created:
            replies = transport.invoke_batch(endpoint.endpoint_id, batch)
        assert [outcome(r) for r in replies.entries] == [
            ("result", 2), ("result", "rested"),
            ("result", 6), ("result", "rested"),
        ]
        assert created == []  # the batch's continuation, before
        assert skeleton.pending == 0

    def test_a_blocking_call_past_its_deadline_completes_once(self):
        transport = AsyncioTransport(timeout=0.05)
        impl = Gated()
        try:
            endpoint, skeleton = exported(transport, impl)
            outcomes = []
            transport.submit(
                endpoint.endpoint_id, request_for(skeleton, "hold"),
                lambda reply, error: outcomes.append((reply, error)),
            )
            assert _wait_for(lambda: outcomes)
            [(reply, error)] = outcomes
            assert reply is None and isinstance(error, RemoteError)
            assert str(error) == "invocation of 'hold' timed out after 0.05s"
            assert _wait_for(lambda: window_is_empty(transport))
            impl.gate.set()
            # The late reply has come back on the worker...
            assert _wait_for(lambda: pool_is_idle(transport, endpoint))
            assert not _wait_for(lambda: len(outcomes) > 1, timeout=0.2)
            assert window_is_empty(transport)
            assert skeleton.pending == 0
        finally:
            impl.gate.set()
            transport.shutdown()

    @pytest.mark.parametrize("batched", [False, True], ids=["call", "batch"])
    def test_a_call_that_expires_while_queued_never_runs(self, batched):
        """Unbatched, or the one entry of a batch: its record expires
        while its job queues behind a busy pool, and the job never
        runs."""
        transport = AsyncioTransport(timeout=0.05)
        busy, late = Gated("busy"), Gated("late")
        try:
            endpoint, busy_skeleton = exported(transport, busy)
            late_skeleton = Skeleton(late, transport, endpoint.endpoint_id)
            workers = transport.dispatch_stats(endpoint.endpoint_id)["workers"]
            outcomes = []

            def on_done(reply, error):
                outcomes.append(error)

            for _ in range(workers):
                transport.submit(
                    endpoint.endpoint_id, request_for(busy_skeleton, "hold"),
                    on_done,
                )
            assert _wait_for(lambda: len(busy.held) == workers)
            late_call = request_for(late_skeleton, "hold")
            if batched:
                transport.submit_batch(
                    endpoint.endpoint_id, BatchRequest(entries=(late_call,)),
                    on_done,
                )
            else:
                transport.submit(endpoint.endpoint_id, late_call, on_done)
            assert _wait_for(lambda: len(outcomes) == workers + 1)
            assert all("timed out" in str(error) for error in outcomes)
            busy.gate.set()
            # Once the pool is idle, the late job has been dequeued.
            assert _wait_for(lambda: pool_is_idle(transport, endpoint))
            assert not _wait_for(lambda: late.held, timeout=0.2)
            assert late_skeleton.stats.snapshot() == {}
            assert window_is_empty(transport)
        finally:
            busy.gate.set()
            late.gate.set()
            transport.shutdown()

    def test_shutdown_completes_a_running_blocking_call(self):
        transport = AsyncioTransport()
        impl = Gated()
        try:
            endpoint, skeleton = exported(transport, impl)
            outcomes = []
            transport.submit(
                endpoint.endpoint_id, request_for(skeleton, "hold"),
                lambda reply, error: outcomes.append((reply, error)),
            )
            assert _wait_for(lambda: impl.held)
            transport.shutdown()
            assert _wait_for(lambda: outcomes)
            [(reply, error)] = outcomes
            assert reply is None and isinstance(error, ConnectError)
            assert "shut down" in str(error)
            impl.gate.set()
            assert _wait_for(lambda: pool_is_idle(transport, endpoint))
            assert not _wait_for(lambda: len(outcomes) > 1, timeout=0.2)
            assert window_is_empty(transport)
        finally:
            impl.gate.set()
            transport.shutdown()

    def test_a_fault_hook_is_still_consulted_once_per_message(self, transport):
        endpoint, skeleton = exported(transport, Mixed())
        seen = []

        def hook(endpoint_id, message):
            seen.append((message.method, threading.current_thread().name))

        transport.install_fault_hook(hook)
        stub = Stub(transport, skeleton.ref())
        assert stub.nap(0) == "rested"
        batch = BatchRequest(entries=(
            request_for(skeleton, "nap", 0),
            request_for(skeleton, "double", 2),
            request_for(skeleton, "nap", 0),
        ))
        replies = transport.invoke_batch(endpoint.endpoint_id, batch)
        assert [outcome(r) for r in replies.entries] == [
            ("result", "rested"), ("result", 4), ("result", "rested"),
        ]
        assert [method for method, _ in seen] == ["nap", "ermi.batch[3]"]
        loop_thread = loop_runtime().thread.name
        assert all(name != loop_thread for _, name in seen)


class TestDrainWhileQueued:
    def test_a_call_queued_behind_a_full_pool_is_drained_and_retried(
        self, transport
    ):
        """Accept runs when an offload worker picks the call up: a call
        still queued when its member starts draining is answered
        ``drained``, charged that attempt, and served by another
        member; the drain does not wait for it."""
        from repro.core.balancer import ElasticStub
        from repro.obs import Observability

        from tests.faults.test_cpu_crash import _FixedSentinel

        members = [
            Skeleton(
                Gated(f"member-{i}"), transport,
                transport.add_endpoint(f"member-{i}").endpoint_id,
            )
            for i in range(3)
        ]
        victim = members[1]
        sentinel = Skeleton(
            _FixedSentinel([m.ref() for m in members]), transport,
            transport.add_endpoint("sentinel").endpoint_id,
        ).ref()
        obs = Observability()
        stub = ElasticStub(transport, lambda: sentinel, obs=obs)
        # Priming takes rotation slot 0: the next call's first target is
        # the victim.
        assert stub.invoke_async("whoami").result(timeout=5.0) == "member-0"
        counters = [
            obs.registry.counter(f"rmi.client.{name}")
            for name in ("calls", "attempts", "retries")
        ]
        base = [counter.value for counter in counters]
        try:
            workers = transport.dispatch_stats(victim.endpoint_id)["workers"]
            parked = []
            for _ in range(workers):
                transport.submit(
                    victim.endpoint_id, request_for(victim, "hold"),
                    lambda reply, error: parked.append(outcome(reply)),
                )
            assert _wait_for(lambda: len(victim.impl.held) == workers)
            queued = stub.invoke_async("hold")
            assert _wait_for(lambda: transport.inflight == workers + 1)
            victim.start_drain()
            assert victim.pending == workers  # the queued call is not in it
            victim.impl.gate.set()
            assert victim.wait_drained(timeout=5.0)
            assert _wait_for(lambda: len(parked) == workers)
            assert parked == [("result", "member-1")] * workers
            assert not queued.done()  # parked at its next member
        finally:
            for member in members:
                member.impl.gate.set()
        assert queued.result(timeout=5.0) in ("member-0", "member-2")
        assert len(victim.impl.held) == workers  # it never ran the call
        charged = [c.value - b for c, b in zip(counters, base)]
        assert charged == [1, 2, 1]
