"""Multi-core skeleton execution: process-pool dispatch + zero-copy payloads.

Implementation classes here are module-level on purpose: workers are
*spawned* (fresh interpreters, immune to inherited-lock fork hazards),
so everything that crosses the process boundary must be importable by
reference from the worker side.
"""

from __future__ import annotations

import itertools
import os
from typing import Any

import pytest

from repro.errors import MarshalError
from repro.obs import Observability
from repro.rmi.cpu import (
    DEFAULT_SHM_MIN,
    CpuExecutor,
    _pack_payload,
    _unpack_payload,
    cpu_bound,
    live_segments,
)
from repro.rmi.fastpath import dumps_oob, loads_oob
from repro.rmi.remote import Remote, Skeleton, Stub, _declares_cpu_bound
from repro.rmi.transport import DirectTransport, ThreadedTransport


class _Hasher(Remote):
    """A worker-visible impl: one cpu-bound method, one plain one."""

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt
        self.calls = 0

    @cpu_bound
    def digest(self, blob: bytes) -> int:
        self.calls += 1  # mutates the worker's snapshot only
        return (sum(blob) + self.salt) & 0xFFFFFFFF

    @cpu_bound
    def echo(self, value: Any) -> Any:
        return value

    @cpu_bound
    def pid(self) -> int:
        return os.getpid()

    @cpu_bound
    def fail(self, message: str) -> None:
        raise ValueError(message)

    def plain(self) -> str:
        return "inline"


class _Plain(Remote):
    def ping(self) -> str:
        return "pong"


class TestDecorator:
    def test_marks_the_function(self):
        assert _Hasher.digest.__ermi_cpu_bound__ is True
        assert not getattr(_Hasher.plain, "__ermi_cpu_bound__", False)

    def test_class_scan(self):
        assert _declares_cpu_bound(_Hasher)
        assert not _declares_cpu_bound(_Plain)

    def test_class_scan_runs_once_and_pins_no_class(self):
        """Every activation of a pool's class asks; the class is walked
        once, and a class that goes away takes its answer with it."""
        import gc
        import weakref

        walks = []

        class Meta(type):
            def __dir__(cls):
                walks.append(cls.__name__)
                return super().__dir__()

        class Local(Remote, metaclass=Meta):
            @cpu_bound
            def crunch(self):
                return 1

        assert [_declares_cpu_bound(Local) for _ in range(3)] == [True] * 3
        assert walks == ["Local"]
        gone = weakref.ref(Local)
        del Local
        gc.collect()
        assert gone() is None


class TestOutOfBandPickle:
    def test_small_values_stay_inline(self):
        body, buffers = dumps_oob({"k": b"tiny"}, min_bytes=1024)
        assert buffers == []
        assert loads_oob(body, None) == {"k": b"tiny"}

    def test_large_buffers_promoted_and_restored_by_value(self):
        blob = bytes(range(256)) * 16          # 4 KiB
        mutable = bytearray(blob)
        value = {"a": blob, "b": [mutable], "c": 7}
        body, buffers = dumps_oob(value, min_bytes=1024)
        assert len(buffers) == 2
        views = [buf.raw() for buf in buffers]
        restored = loads_oob(body, views)
        for view in views:
            view.release()                     # must not break the copies
        assert restored["a"] == blob
        assert type(restored["a"]) is bytes
        assert type(restored["b"][0]) is bytearray
        restored["b"][0][0] ^= 0xFF            # independent copy
        assert mutable[0] == blob[0]
        assert restored["c"] == 7

    def test_deep_nesting_beyond_walk_depth_still_roundtrips(self):
        # Depth-limited promotion: the blob rides inline, but the value
        # must survive unchanged.
        value = [[[[b"x" * 4096]]]]
        body, buffers = dumps_oob(value, min_bytes=1024)
        assert loads_oob(body, [b.raw() for b in buffers]) == value


class TestPayloadPacking:
    def test_small_payload_has_no_segment(self):
        spec, segment = _pack_payload(
            ("m", (b"small",), {}),
            DEFAULT_SHM_MIN,
            "ermi-cpu-test",
            itertools.count(),
        )
        assert segment is None
        assert _unpack_payload(spec) == ("m", (b"small",), {})

    def test_large_payload_rides_shared_memory(self):
        blob = os.urandom(512 * 1024)
        spec, segment = _pack_payload(
            ("m", (blob,), {}),
            DEFAULT_SHM_MIN,
            "ermi-cpu-test",
            itertools.count(),
        )
        assert segment is not None
        assert segment in live_segments()
        body, inline, shm_descr = spec
        assert inline is None and shm_descr[0] == segment
        method, args, kwargs = _unpack_payload(spec)
        assert args[0] == blob
        # The consumer unlinks the segment after reconstruction.
        assert segment not in live_segments()

    def test_huge_crossover_forces_pipe_copy(self):
        blob = os.urandom(512 * 1024)
        spec, segment = _pack_payload(
            ("m", (blob,), {}), 1 << 62, "ermi-cpu-test", itertools.count()
        )
        assert segment is None
        assert _unpack_payload(spec)[1][0] == blob


@pytest.fixture(scope="module")
def executor():
    pool = CpuExecutor(workers=1)
    yield pool
    pool.shutdown()


class TestCpuExecutor:
    def test_runs_in_another_process(self, executor):
        assert executor.run_call(_Hasher(), "pid", (), {}) != os.getpid()

    def test_result_roundtrip_small_and_large(self, executor):
        impl = _Hasher(salt=1)
        assert executor.run_call(impl, "digest", (b"\x01\x02",), {}) == 4
        blob = os.urandom(1024 * 1024)
        assert executor.run_call(impl, "echo", (blob,), {}) == blob

    def test_impl_state_is_a_snapshot(self, executor):
        impl = _Hasher()
        executor.run_call(impl, "digest", (b"x",), {})
        assert impl.calls == 0  # worker mutated its copy, not ours

    def test_application_exception_propagates(self, executor):
        with pytest.raises(ValueError, match="boom"):
            executor.run_call(_Hasher(), "fail", ("boom",), {})

    def test_unpicklable_argument_raises_marshal_error(self, executor):
        with pytest.raises(MarshalError):
            executor.run_call(_Hasher(), "echo", (lambda: None,), {})

    def test_no_segments_leak(self, executor):
        blob = os.urandom(1024 * 1024)
        for _ in range(3):
            executor.run_call(_Hasher(), "echo", (blob,), {})
        assert live_segments() == []

    def test_obs_gauges_and_latency(self, executor):
        obs = Observability()
        executor.set_obs(obs)
        try:
            executor.run_call(_Hasher(), "digest", (b"x",), {})
            assert obs.registry.gauge("rmi.cpu.workers").value == 1.0
            assert obs.registry.histogram("rmi.cpu.dispatch_latency").count >= 1
            assert obs.registry.gauge("rmi.cpu.inflight").value == 0.0
        finally:
            executor.set_obs(None)

    def test_shutdown_is_idempotent(self):
        pool = CpuExecutor(workers=1)
        pool.run_call(_Hasher(), "digest", (b"x",), {})
        pool.shutdown()
        pool.shutdown()
        assert pool.worker_pids() == []


class TestTransportIntegration:
    def test_threaded_transport_dispatches_to_worker(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("m0")
            skeleton = Skeleton(_Hasher(), transport, ep.endpoint_id)
            stub = Stub(transport, skeleton.ref())
            assert stub.pid() != os.getpid()
            assert stub.plain() == "inline"  # unmarked methods stay local
            assert skeleton.stats.total_calls() == 2
        finally:
            transport.shutdown()

    def test_direct_transport_stays_inline(self):
        """DirectTransport declines to provide a pool: cpu-bound methods
        run inline and deterministically (simulation contract)."""
        transport = DirectTransport()
        ep = transport.add_endpoint("m0")
        skeleton = Skeleton(_Hasher(), transport, ep.endpoint_id)
        stub = Stub(transport, skeleton.ref())
        assert skeleton._cpu is None
        assert stub.pid() == os.getpid()

    def test_no_pool_created_without_cpu_methods(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("m0")
            skeleton = Skeleton(_Plain(), transport, ep.endpoint_id)
            stub = Stub(transport, skeleton.ref())
            assert stub.ping() == "pong"
            assert skeleton._cpu is None
            assert transport.cpu_executor() is not None  # created on demand
        finally:
            transport.shutdown()

    def test_skeletons_share_the_transport_pool(self):
        transport = ThreadedTransport()
        try:
            a = Skeleton(
                _Hasher(), transport, transport.add_endpoint("a").endpoint_id
            )
            b = Skeleton(
                _Hasher(), transport, transport.add_endpoint("b").endpoint_id
            )
            assert a._cpu is b._cpu
        finally:
            transport.shutdown()


class TestAsyncioTransportIntegration:
    def test_cpu_bound_methods_leave_the_loop(self):
        from repro.rmi.aio import AsyncioTransport

        transport = AsyncioTransport()
        try:
            ep = transport.add_endpoint("m0")
            skeleton = Skeleton(_Hasher(), transport, ep.endpoint_id)
            stub = Stub(transport, skeleton.ref())
            pids = {stub.invoke_async("pid").result(timeout=60) for _ in range(3)}
            assert os.getpid() not in pids
        finally:
            transport.shutdown()
