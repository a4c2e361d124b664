"""Tests for the client-side request batcher (coalescing layer).

Covers both dispatch disciplines — the deferred single-threaded path on
:class:`DirectTransport` and the combiner path on
:class:`ThreadedTransport` — plus per-entry failure semantics, the
completer contract, zero-copy payload passthrough, and the in-flight
window.
"""

import dataclasses
import threading
import time

import pytest

from repro.errors import ApplicationError, ConnectError, RemoteError
from repro.rmi.aio import AsyncioTransport
from repro.rmi.batching import (
    BatcherStats,
    RequestBatcher,
    batch_inflight_from_env,
    batch_max_from_env,
)
from repro.rmi.fastpath import is_zero_copy, marshal_call
from repro.rmi.future import gather
from repro.rmi.remote import Remote, Skeleton, Stub
from repro.rmi.transport import (
    BatchRequest,
    DirectTransport,
    Request,
    ThreadedTransport,
)


class Echo(Remote):
    def __init__(self):
        self.calls = 0

    def echo(self, value):
        self.calls += 1
        return value

    def explode(self):
        raise ValueError("kaboom")


def exported(transport):
    endpoint = transport.add_endpoint("server")
    skeleton = Skeleton(Echo(), transport, endpoint.endpoint_id)
    return skeleton


def make_stub(transport, skeleton, **batcher_kwargs):
    batcher = RequestBatcher(transport, **batcher_kwargs)
    return Stub(transport, skeleton.ref(), batcher=batcher), batcher


class TestEnvConfig:
    def test_defaults_disable_batching(self, monkeypatch):
        monkeypatch.delenv("ERMI_BATCH_MAX", raising=False)
        monkeypatch.delenv("ERMI_BATCH_INFLIGHT", raising=False)
        assert batch_max_from_env() == 1
        assert batch_inflight_from_env() == 2

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("ERMI_BATCH_MAX", "32")
        monkeypatch.setenv("ERMI_BATCH_INFLIGHT", "4")
        assert batch_max_from_env() == 32
        assert batch_inflight_from_env() == 4

    def test_disabled_batcher_is_inert(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, batcher = make_stub(transport, skeleton, max_batch=1)
        assert not batcher.enabled
        assert stub.echo(7) == 7
        assert batcher.stats.batches == 0


class TestDeferredDiscipline:
    """DirectTransport: entries queue, the gather's wait hook flushes."""

    def test_pipelined_window_coalesces(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, batcher = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        futures = [stub.invoke_async("echo", i) for i in range(5)]
        # Nothing sent yet: submission never parks or flushes under max.
        assert batcher.pending_count() == 5
        assert skeleton.impl.calls == 0
        assert gather(futures) == [0, 1, 2, 3, 4]
        assert skeleton.impl.calls == 5
        assert batcher.stats.batches == 1
        assert batcher.stats.entries == 5

    def test_queue_reaching_max_batch_flushes(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, batcher = make_stub(transport, skeleton, max_batch=3, linger=0.0)
        futures = [stub.invoke_async("echo", i) for i in range(3)]
        # Hitting max_batch dispatched without anyone waiting.
        assert batcher.pending_count() == 0
        assert skeleton.impl.calls == 3
        assert gather(futures) == [0, 1, 2]

    def test_sync_call_pipelines_queued_entries(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, batcher = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        async_future = stub.invoke_async("echo", "queued")
        # A synchronous call through the same stub sweeps the deferred
        # entry into its own batch.
        assert stub.echo("sync") == "sync"
        assert batcher.stats.batches == 1
        assert batcher.stats.entries == 2
        assert async_future.result(timeout=0) == "queued"

    def test_explicit_flush_dispatches(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, batcher = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        future = stub.invoke_async("echo", 1)
        batcher.flush()
        assert future.done()
        assert future.result() == 1

    def test_singleton_batch_is_wire_identical(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, batcher = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        seen = []
        original = transport.invoke

        def spying_invoke(endpoint_id, request):
            seen.append(request)
            return original(endpoint_id, request)

        transport.invoke = spying_invoke
        try:
            assert stub.invoke_async("echo", 9).result(timeout=0) == 9
        finally:
            transport.invoke = original
        # One entry flies as a plain Request, not a BatchRequest.
        assert len(seen) == 1
        assert isinstance(seen[0], Request)
        assert batcher.stats.batches == 1
        assert batcher.stats.entries == 1


class TestPerEntrySemantics:
    def test_application_error_stays_per_entry(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, _ = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        good = stub.invoke_async("echo", 1)
        bad = stub.invoke_async("explode")
        also_good = stub.invoke_async("echo", 2)
        assert good.result(timeout=0) == 1
        assert also_good.result(timeout=0) == 2
        with pytest.raises(ApplicationError, match="kaboom"):
            bad.result(timeout=0)

    def test_unresolved_entry_becomes_connect_error(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, _ = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        ghost = Stub(
            transport,
            dataclasses.replace(skeleton.ref(), object_id="no-such-object"),
            batcher=stub._batcher,
        )
        real = stub.invoke_async("echo", 1)
        missing = ghost.invoke_async("echo", 2)
        assert real.result(timeout=0) == 1
        with pytest.raises(ConnectError, match="no-such-object"):
            missing.result(timeout=0)

    def test_whole_batch_failure_fails_every_entry(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, _ = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        futures = [stub.invoke_async("echo", i) for i in range(3)]
        transport.kill(skeleton.endpoint_id)
        for future in futures:
            with pytest.raises(ConnectError):
                future.result(timeout=0)

    def test_zero_copy_payloads_ride_batches_untouched(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, _ = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        seen = []
        original = transport.invoke_batch

        def spying_invoke_batch(endpoint_id, batch):
            seen.append(batch)
            return original(endpoint_id, batch)

        transport.invoke_batch = spying_invoke_batch
        try:
            futures = [stub.invoke_async("echo", i) for i in range(2)]
            assert gather(futures) == [0, 1]
        finally:
            transport.invoke_batch = original
        assert len(seen) == 1
        assert isinstance(seen[0], BatchRequest)
        for entry in seen[0].entries:
            assert is_zero_copy(entry.payload)


class TestCompleterContract:
    def test_completer_owns_completion(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        _, batcher = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        request = Request(
            object_id=skeleton.object_id, method="echo",
            payload=_marshal(("hello",)), caller="test",
        )
        outcomes = []

        def completer(future, response, error):
            outcomes.append((response, error))
            future.set_result("completer-made-this")

        future = batcher.submit(skeleton.endpoint_id, request, completer)
        assert future.result(timeout=0) == "completer-made-this"
        (response, error), = outcomes
        assert error is None
        assert response.kind == "result"

    def test_completer_gets_error_on_batch_failure(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        _, batcher = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        request = Request(
            object_id=skeleton.object_id, method="echo",
            payload=_marshal(("x",)), caller="test",
        )
        outcomes = []

        def completer(future, response, error):
            outcomes.append((response, error))
            future.set_exception(error)

        future = batcher.submit(skeleton.endpoint_id, request, completer)
        transport.kill(skeleton.endpoint_id)
        with pytest.raises(ConnectError):
            future.result(timeout=0)
        (response, error), = outcomes
        assert response is None
        assert isinstance(error, ConnectError)

    def test_raising_completer_fails_only_its_future(self):
        transport = DirectTransport()
        skeleton = exported(transport)
        stub, batcher = make_stub(transport, skeleton, max_batch=8, linger=0.0)
        request = Request(
            object_id=skeleton.object_id, method="echo",
            payload=_marshal((1,)), caller="test",
        )

        def bad_completer(future, response, error):
            raise RuntimeError("completer bug")

        broken = batcher.submit(skeleton.endpoint_id, request, bad_completer)
        healthy = stub.invoke_async("echo", 2)
        assert healthy.result(timeout=0) == 2
        with pytest.raises(RuntimeError, match="completer bug"):
            broken.result(timeout=0)


class TestCombinerDiscipline:
    """ThreadedTransport: callers elect themselves senders."""

    def test_sync_calls_still_correct_under_concurrency(self):
        transport = ThreadedTransport(workers_per_endpoint=4)
        try:
            skeleton = exported(transport)
            stub, batcher = make_stub(
                transport, skeleton, max_batch=16, linger=0.0,
                inflight_limit=2,
            )
            results = {}
            errors = []

            def worker(start, count):
                try:
                    for i in range(start, start + count):
                        results[i] = stub.echo(i)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(base * 50, 50))
                for base in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert all(results[i] == i for i in results)
            assert len(results) == 400
            # Every logical call was accounted, however it was grouped.
            assert batcher.stats.entries == 400
            assert batcher.stats.batches <= 400
        finally:
            transport.shutdown()

    def test_inflight_window_is_respected(self):
        transport = ThreadedTransport(workers_per_endpoint=4)
        try:
            skeleton = exported(transport)
            stub, batcher = make_stub(
                transport, skeleton, max_batch=4, linger=0.0,
                inflight_limit=2,
            )
            futures = [stub.invoke_async("echo", i) for i in range(64)]
            assert gather(futures, timeout=30.0) == list(range(64))
            assert batcher.stats.inflight_hwm <= 2
            assert batcher.stats.entries == 64
        finally:
            transport.shutdown()

    def test_concurrent_async_callers_coalesce(self):
        transport = ThreadedTransport(workers_per_endpoint=4)
        try:
            skeleton = exported(transport)
            stub, batcher = make_stub(
                transport, skeleton, max_batch=64, linger=0.0,
                inflight_limit=1,
            )
            barrier = threading.Barrier(8)
            errors = []

            def worker(base):
                try:
                    barrier.wait()
                    futures = [
                        stub.invoke_async("echo", base + i) for i in range(16)
                    ]
                    assert gather(futures, timeout=30.0) == [
                        base + i for i in range(16)
                    ]
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(base * 100,))
                for base in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert batcher.stats.entries == 128
            # With a single sender slot, concurrent windows must share
            # wire messages: strictly fewer batches than entries.
            assert batcher.stats.batches < batcher.stats.entries
        finally:
            transport.shutdown()


class TestQueuePruning:
    """The queue map follows the membership: making a queue for a new
    endpoint leaves out idle queues of endpoints that are gone."""

    def test_dead_endpoints_queues_go_when_a_new_one_is_made(self):
        transport = DirectTransport()
        skeletons = [exported(transport) for _ in range(5)]
        batcher = RequestBatcher(transport, max_batch=8, linger=0.0)
        stubs = [
            Stub(transport, skeleton.ref(), batcher=batcher)
            for skeleton in skeletons
        ]
        for stub in stubs[:4]:
            assert stub.invoke_async("echo", 1).result(timeout=0) == 1
        stranded = stubs[2].invoke_async("echo", 2)  # queued, never waited on
        for skeleton in skeletons[:3]:
            transport.kill(skeleton.endpoint_id)
        before = dict(batcher._queues)
        assert len(before) == 4  # nothing is pruned until a queue is made
        assert stubs[4].invoke_async("echo", 3).result(timeout=0) == 3
        # Idle and dead: gone.  Dead but holding an entry, or alive: kept.
        kept = [s.endpoint_id for s in skeletons[2:]]
        assert sorted(batcher._queues) == sorted(kept)
        assert all(batcher._queues[eid] is before[eid] for eid in kept[:2])
        with pytest.raises(ConnectError, match="is down"):
            stranded.result(timeout=0)

    @pytest.mark.parametrize("transport_cls", [ThreadedTransport, AsyncioTransport])
    def test_submitters_racing_the_prune_always_complete(self, transport_cls):
        """Submitters keep addressing endpoints that are being killed
        while new ones (whose first submit prunes the map) appear: every
        future completes — with its reply, or with the ``ConnectError``
        of a dead endpoint — and the map stays small."""
        import sys

        transport = transport_cls()
        batcher = RequestBatcher(transport, max_batch=4, linger=0.0)
        current = [exported(transport) for _ in range(2)]
        stop = threading.Event()
        waves = threading.Semaphore(0)  # paces the rotation to the load
        outcomes = {"ok": 0, "down": 0}
        problems = []
        lock = threading.Lock()

        def submitter():
            ok = down = 0
            try:
                while not stop.is_set():
                    targets = list(current)
                    futures = [
                        batcher.submit(
                            skeleton.endpoint_id,
                            Request(
                                skeleton.object_id, "echo",
                                marshal_call((i,), {}), "t",
                            ),
                        )
                        for i in range(3)
                        for skeleton in targets
                    ]
                    for future in futures:
                        error = future.exception(timeout=30.0)
                        if error is None:
                            ok += 1
                        elif isinstance(error, ConnectError):
                            down += 1
                        else:
                            raise error
                    waves.release()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                problems.append(exc)
            with lock:
                outcomes["ok"] += ok
                outcomes["down"] += down

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            hwm = 0
            for _ in range(300):
                assert waves.acquire(timeout=30.0)
                fresh = exported(transport)
                gone = current[0]
                current[:] = [current[1], fresh]
                transport.kill(gone.endpoint_id)
                hwm = max(hwm, len(batcher._queues))
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            transport.shutdown()
        assert not problems
        assert outcomes["ok"] > 0
        assert batcher.pending_count() == 0
        # 302 endpoints were addressed; a handful of queues at a time.
        assert hwm <= 10


class Nest(Remote):
    """Calls itself, synchronously and batched, ``depth`` levels down."""

    def __init__(self):
        self.stub = None
        self.entered = []

    def down(self, depth):
        self.entered.append(depth)
        if depth == 0:
            return [0]
        return self.stub.down(depth - 1) + [depth]


class TestReentrantCallOnDirect:
    """DirectTransport completes a batch in the caller's own thread, so
    nothing else will ever send: a handler's batched call to its own
    endpoint must fly past the batch it runs inside, whatever the
    window says, or it would wait on itself forever."""

    def test_nested_batched_calls_complete_in_order(self):
        transport = DirectTransport()
        endpoint = transport.add_endpoint("server")
        impl = Nest()
        skeleton = Skeleton(impl, transport, endpoint.endpoint_id)
        batcher = RequestBatcher(transport, max_batch=8, inflight_limit=1)
        impl.stub = Stub(transport, skeleton.ref(), batcher=batcher)
        assert impl.stub.down(3) == [0, 1, 2, 3]
        assert impl.entered == [3, 2, 1, 0]
        # Four batches, each flown while the one it was called from was
        # still on the wire.
        assert batcher.stats.batches == 4
        assert batcher.stats.inflight_hwm == 4


class Parked(Remote):
    def __init__(self):
        self.release = threading.Event()

    def park(self, value):
        self.release.wait(10.0)
        return value


class TestThreadedDeadline:
    """ThreadedTransport's deadline is enforced by the thread that sent
    the batch: through the batcher, one deadline fails every entry."""

    def test_one_deadline_fails_the_sync_call_and_its_batch(self):
        deadline = 0.05
        transport = ThreadedTransport(workers_per_endpoint=8, timeout=deadline)
        impl = Parked()
        try:
            endpoint = transport.add_endpoint("server")
            skeleton = Skeleton(impl, transport, endpoint.endpoint_id)
            stub, batcher = make_stub(transport, skeleton, max_batch=8)
            queued = [stub.invoke_async("park", i) for i in range(7)]
            started = time.monotonic()
            with pytest.raises(RemoteError, match="timed out"):
                stub.park(7)
            elapsed = time.monotonic() - started
            for future in queued:
                error = future.exception(timeout=0)
                assert isinstance(error, RemoteError)
                assert "timed out" in str(error)
            # The sync call swept the seven queued entries into its own
            # batch: eight entries, eight dispatch chunks, one deadline.
            assert (batcher.stats.batches, batcher.stats.entries) == (1, 8)
            assert elapsed < 6 * deadline
        finally:
            impl.release.set()
            transport.shutdown()


class TestStats:
    def test_coalesce_ratio(self):
        stats = BatcherStats()
        assert stats.coalesce_ratio() == 1.0
        stats.batches, stats.entries = 4, 12
        assert stats.coalesce_ratio() == 3.0


def _marshal(args, kwargs=None):
    from repro.rmi.fastpath import marshal_call

    return marshal_call(args, kwargs or {})
