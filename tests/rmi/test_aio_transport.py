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
from repro.rmi.fastpath import marshal_call, unmarshal_result
from repro.rmi.future import gather
from repro.rmi.remote import Remote, Skeleton, Stub
from repro.rmi.transport import BatchRequest, Request, Response

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
        # The marked method ran on the offload pool, not the loop thread.
        assert impl.offload_threads
        assert all(
            name.startswith("ermi-aio-offload")
            for name in impl.offload_threads
        )

    def test_application_error_propagates(self, transport):
        _, skeleton = exported(transport)
        stub = Stub(transport, skeleton.ref())
        with pytest.raises(ApplicationError, match="kaboom"):
            stub.explode()

    def test_blocking_calls_overlap_on_one_loop(self, transport):
        """Two 150 ms sleeps through one event loop finish in well under
        300 ms: the offload executor gives real concurrency."""
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


class TestBatchDispatch:
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
        endpoint, skeleton = exported(transport, Mixed())
        batch = BatchRequest(entries=tuple(
            request_for(skeleton, "double", i) for i in range(16)
        ))
        transport.invoke_batch(endpoint.endpoint_id, batch)  # warm
        with counting_tasks() as created:
            replies = transport.invoke_batch(endpoint.endpoint_id, batch)
        assert [outcome(r) for r in replies.entries] == [
            ("result", 2 * i) for i in range(16)
        ]
        assert created == []  # one per entry, plus one, two changes ago

    def test_a_batch_that_suspends_costs_one_task_more(self, transport):
        """Stepped eagerly, a batch whose entries suspend still costs
        what it did: one task per such entry, plus one for the batch."""
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
        assert len(created) == 3


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
    """A batch with one parked entry: whatever ends the batch's task ends
    every entry's call, and no task is left behind."""

    def parked_batch(self, transport):
        endpoint, skeleton = exported(transport, Mixed())
        batcher = RequestBatcher(transport, max_batch=8, linger=0.0)
        futures = [
            batcher.submit(endpoint.endpoint_id, request_for(skeleton, method))
            for method in ("explode", "park", "explode", "whoami")
        ]
        return skeleton, futures

    def test_shutdown_fails_every_entry(self):
        transport = AsyncioTransport()
        try:
            skeleton, futures = self.parked_batch(transport)
            assert not futures[0].wait(timeout=0.05)  # flown, and parked
            assert _wait_for(lambda: skeleton.pending == 1)
        finally:
            transport.shutdown()
        for future in futures:
            assert isinstance(future.exception(timeout=5.0), ConnectError)
        assert _wait_for(lambda: not transport._tasks)
        assert skeleton.pending == 0

    def test_deadline_fails_every_entry(self):
        transport = AsyncioTransport(timeout=0.05)
        try:
            skeleton, futures = self.parked_batch(transport)
            for future in futures:
                error = future.exception(timeout=5.0)
                assert isinstance(error, RemoteError)
                assert "timed out" in str(error)
            assert _wait_for(lambda: not transport._tasks)
            assert skeleton.pending == 0
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

    def test_an_eager_call_that_suspends_keeps_its_context(self, transport):
        """A handler promised not to suspend that does anyway finishes
        in one task, in the very context its first step ran in: a
        ContextVar token set before the await resets after it."""
        endpoint = transport.add_endpoint("promised")

        async def traced(request):
            token = _SEEN.set("traced")
            try:
                await asyncio.sleep(0)
                return Response(kind="result", payload=b"ok")
            finally:
                _SEEN.reset(token)

        endpoint.export("o", lambda request: None, traced, lambda method: False)
        with counting_tasks() as created:
            reply = transport.invoke(endpoint.endpoint_id, Request("o", "m", b""))
        assert reply.payload == b"ok"
        assert len(created) == 1

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
# offloaded dispatch: a @blocking call is one job on the offload executor
# ----------------------------------------------------------------------


class Gated(Remote):
    """A member whose ``@blocking`` ``hold`` keeps an offload worker until
    its gate opens; ``whoami`` is a plain call."""

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


class offload_replies:
    """Collects the callbacks offload workers post to the shared loop
    while entered: one per reply handed back."""

    def __enter__(self):
        self.loop, self.posted = loop_runtime().loop, []
        plain = self.loop.call_soon_threadsafe

        def counting(callback, *args, **kwargs):
            if threading.current_thread().name.startswith("ermi-aio-offload"):
                self.posted.append(callback)
            return plain(callback, *args, **kwargs)

        self.loop.call_soon_threadsafe = counting
        return self.posted

    def __exit__(self, *exc_info):
        del self.loop.call_soon_threadsafe


def window_is_empty(transport):
    """No call in flight, every slot of the window free, nothing left
    to settle."""
    return (
        transport.inflight == 0
        and transport._sema._value == transport.inflight_limit
        and not transport._offloaded
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
            name.startswith("ermi-aio-offload")
            for name in impl.offload_threads
        )
        assert window_is_empty(transport)

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
        assert len(created) == 1  # the batch's continuation; three, before
        assert skeleton.pending == 0

    def test_a_blocking_call_past_its_deadline_completes_once(self):
        transport = AsyncioTransport(timeout=0.05)
        impl = Gated()
        try:
            endpoint, skeleton = exported(transport, impl)
            outcomes = []
            with offload_replies() as posted:
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
                assert _wait_for(lambda: posted)
                on_the_loop(lambda: None)  # the late reply has run
            assert len(outcomes) == 1  # and was dropped
            assert window_is_empty(transport)
            assert skeleton.pending == 0
        finally:
            impl.gate.set()
            transport.shutdown()

    def test_a_call_that_expires_while_queued_never_runs(self):
        transport = AsyncioTransport(timeout=0.05)
        busy, late = Gated("busy"), Gated("late")
        try:
            endpoint, busy_skeleton = exported(transport, busy)
            late_skeleton = Skeleton(late, transport, endpoint.endpoint_id)
            workers = loop_runtime().offload._max_workers
            outcomes = []

            def on_done(reply, error):
                outcomes.append(error)

            for _ in range(workers):
                transport.submit(
                    endpoint.endpoint_id, request_for(busy_skeleton, "hold"),
                    on_done,
                )
            assert _wait_for(lambda: len(busy.held) == workers)
            transport.submit(
                endpoint.endpoint_id, request_for(late_skeleton, "hold"),
                on_done,
            )
            assert _wait_for(lambda: len(outcomes) == workers + 1)
            assert all("timed out" in str(error) for error in outcomes)
            busy.gate.set()
            # The executor is FIFO: past this job, the late one is dequeued.
            loop_runtime().offload.submit(lambda: None).result(timeout=5.0)
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
            with offload_replies() as posted:
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
                assert _wait_for(lambda: posted)
                on_the_loop(lambda: None)
            assert len(outcomes) == 1
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
        assert all(name.startswith("ermi-aio-offload") for _, name in seen)


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
            workers = loop_runtime().offload._max_workers
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
