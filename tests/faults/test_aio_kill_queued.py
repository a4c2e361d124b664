"""Killed-while-queued on the live asyncio transport.

A ``@blocking`` call runs on its member's own pool of workers.  When
every worker is busy, the call queues there; if the member's endpoint
is killed then, the call must fail at once with the same retryable
``ConnectError("... is down")`` the threaded transport gives (see
``test_threaded_kill_queued.py``), not at its deadline: the elastic stub
charges it one attempt and retries it on a live member.
"""

from __future__ import annotations

import threading
import time

from repro.core.balancer import ElasticStub
from repro.obs import Observability
from repro.rmi.aio import AsyncioTransport, blocking
from repro.rmi.fastpath import marshal_call
from repro.rmi.remote import Remote, Skeleton
from repro.rmi.transport import Request

from tests.faults.test_cpu_crash import _FixedSentinel, _wait_for


class _Parkable(Remote):
    def __init__(self):
        self.gate = threading.Event()
        self.parked = []

    @blocking
    def park(self):
        self.parked.append(threading.current_thread().name)
        self.gate.wait(timeout=30.0)
        return "released"

    @blocking
    def ping(self, value):
        return value


def test_blocking_call_queued_at_a_killed_member_fails_at_once_and_is_retried():
    obs = Observability()
    # A deadline far beyond the test's own waits: the queued call must
    # fail because of the kill, never because of the timer.
    transport = AsyncioTransport(timeout=60.0)
    doomed_impl = _Parkable()
    try:
        doomed_ep = transport.add_endpoint("member-doomed")
        doomed = Skeleton(doomed_impl, transport, doomed_ep.endpoint_id)
        survivor = Skeleton(
            _Parkable(), transport,
            transport.add_endpoint("member-survivor").endpoint_id,
        ).ref()
        sentinel_impl = _FixedSentinel([doomed.ref()])
        sentinel = Skeleton(
            sentinel_impl, transport,
            transport.add_endpoint("sentinel").endpoint_id,
        ).ref()
        stub = ElasticStub(transport, lambda: sentinel, obs=obs)

        # Occupy every worker of the doomed member's pool...
        parked = []
        park = Request(doomed.object_id, "park", marshal_call((), {}), "t")
        stats = transport.dispatch_stats  # zeros until the first @blocking call
        assert stats(doomed_ep.endpoint_id)["busy"] == 0
        transport.submit(
            doomed_ep.endpoint_id, park, lambda reply, error: parked.append(error)
        )
        workers = stats(doomed_ep.endpoint_id)["workers"]
        for _ in range(workers - 1):
            transport.submit(
                doomed_ep.endpoint_id, park,
                lambda reply, error: parked.append(error),
            )
        assert _wait_for(lambda: len(doomed_impl.parked) == workers)

        # ...so the elastic call queues behind them.
        outcome: dict = {}

        def call():
            try:
                outcome["result"] = stub.ping(41)
            except BaseException as exc:  # surfaced by the asserts below
                outcome["error"] = exc

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        assert _wait_for(
            lambda: stats(doomed_ep.endpoint_id)["queued"] == 1
        ), "the elastic call never queued at the doomed member"

        sentinel_impl.members = [survivor]
        killed = time.monotonic()
        transport.kill(doomed_ep.endpoint_id)

        caller.join(timeout=10.0)
        assert not caller.is_alive(), "queued call neither failed nor retried"
        assert time.monotonic() - killed < 5.0  # at once, not at its deadline
        assert outcome == {"result": 41}, outcome

        registry = obs.registry
        assert registry.counter("rmi.client.calls").value == 1
        assert registry.counter("rmi.client.attempts").value == 2
        assert registry.counter("rmi.client.retries").value == 1

        # The jobs a worker had already started run to completion.
        doomed_impl.gate.set()
        assert _wait_for(lambda: len(parked) == workers)
        assert parked == [None] * workers
        assert transport.inflight == 0
    finally:
        doomed_impl.gate.set()
        transport.shutdown()
