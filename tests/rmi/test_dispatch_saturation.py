"""ThreadedTransport dispatch saturation: queued/busy worker gauges.

Drives one endpoint with far more concurrent calls than its worker
pool, and asserts the per-endpoint dispatch statistics tell the truth:
``busy`` pins at the worker count, the overflow shows up as ``queued``,
and — with an :class:`~repro.obs.Observability` attached — the same
numbers surface as ``rmi.server.dispatch_queued.*`` /
``rmi.server.dispatch_busy.*`` gauges.
"""

import threading
import time

from repro.obs import Observability
from repro.rmi.transport import Request, Response, ThreadedTransport

from tests.rmi.test_transport import _Pooled

WORKERS = 2
CALLERS = 10  # concurrency >> max_workers


class _ParkedEndpoint:
    """An endpoint whose handler parks until released, on the member's
    workers (a plain call would run in its caller's thread)."""

    def __init__(self, transport):
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.endpoint = transport.add_endpoint("member-sat")
        self.endpoint.export("obj", _Pooled(self._handle))

    def _handle(self, request: Request) -> Response:
        self.entered.release()
        self.gate.wait(timeout=10.0)
        return Response(kind="result", payload=request.payload)


def _saturate(transport, parked):
    """Launch CALLERS concurrent invokes; returns the joinable threads."""
    threads = [
        threading.Thread(
            target=lambda: transport.invoke(
                parked.endpoint.endpoint_id, Request("obj", "m", b"")
            )
        )
        for _ in range(CALLERS)
    ]
    for t in threads:
        t.start()
    # Both workers are inside the handler; the rest sit in the queue.
    for _ in range(WORKERS):
        assert parked.entered.acquire(timeout=5.0)
    return threads


class TestDispatchSaturation:
    def test_stats_report_busy_and_queued(self):
        transport = ThreadedTransport(workers_per_endpoint=WORKERS)
        try:
            parked = _ParkedEndpoint(transport)
            threads = _saturate(transport, parked)
            try:
                deadline = time.monotonic() + 5.0
                stats = transport.dispatch_stats(
                    parked.endpoint.endpoint_id
                )
                while (
                    stats["queued"] < CALLERS - WORKERS
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                    stats = transport.dispatch_stats(
                        parked.endpoint.endpoint_id
                    )
                assert stats["workers"] == WORKERS
                assert stats["busy"] == WORKERS
                assert stats["queued"] == CALLERS - WORKERS
            finally:
                parked.gate.set()
                for t in threads:
                    t.join(timeout=10.0)
            stats = transport.dispatch_stats(parked.endpoint.endpoint_id)
            assert stats["busy"] == 0
            assert stats["queued"] == 0
        finally:
            transport.shutdown()

    def test_unknown_endpoint_has_no_stats(self):
        transport = ThreadedTransport()
        try:
            assert transport.dispatch_stats("nope") is None
        finally:
            transport.shutdown()

    def test_obs_gauges_export_saturation(self):
        transport = ThreadedTransport(workers_per_endpoint=WORKERS)
        obs = Observability()
        transport.set_obs(obs)
        try:
            parked = _ParkedEndpoint(transport)
            threads = _saturate(transport, parked)
            try:
                deadline = time.monotonic() + 5.0
                queued = obs.registry.gauge(
                    "rmi.server.dispatch_queued.member-sat"
                )
                busy = obs.registry.gauge(
                    "rmi.server.dispatch_busy.member-sat"
                )
                while queued.value < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                # Gauges sample at submit time: the last submission saw a
                # saturated pool and a non-empty queue.
                assert queued.value >= 1
                assert busy.value >= 1
            finally:
                parked.gate.set()
                for t in threads:
                    t.join(timeout=10.0)
        finally:
            transport.shutdown()
