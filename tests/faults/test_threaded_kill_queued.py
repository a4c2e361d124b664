"""Killed-while-queued on the live threaded transport.

A ``@blocking`` call can already sit in a member's dispatch queue when
the member's endpoint is killed (a shrink finalising, a crash); a plain
call runs in its caller's thread and never queues.  The contract: that
call fails with the same retryable ``ConnectError("... is down")`` a
dead endpoint raises, the elastic stub charges it one attempt and
retries elsewhere, and the application never sees it.  The old
executor-backed dispatcher cancelled such calls instead, and a bare
``concurrent.futures.CancelledError`` — which no retry loop catches —
reached the caller.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError

from repro.core.api import ElasticObject
from repro.core.balancer import ElasticStub
from repro.core.pool import MemberState
from repro.core.runtime import ElasticRuntime
from repro.obs import Observability
from repro.rmi.aio import blocking
from repro.rmi.remote import Remote, Skeleton, Stub
from repro.rmi.transport import ThreadedTransport

from tests.faults.test_cpu_crash import _FixedSentinel, _wait_for

CYCLES = 50
PERIOD_S = 0.030
HOLD_S = 0.015
CALLERS = 3


class _Parkable(Remote):
    def __init__(self):
        self.gate = threading.Event()
        self.entered = threading.Event()

    @blocking
    def park(self):
        self.entered.set()
        self.gate.wait(timeout=30.0)
        return "released"

    @blocking
    def ping(self, value):
        return value


class _EchoService(ElasticObject):
    def __init__(self):
        super().__init__()
        self.set_min_pool_size(4)
        self.set_max_pool_size(8)

    def echo(self, value):
        return value


def test_call_queued_at_a_killed_member_is_charged_one_attempt_and_retried():
    obs = Observability()
    transport = ThreadedTransport(workers_per_endpoint=1)
    try:
        doomed_impl = _Parkable()
        doomed_ep = transport.add_endpoint("member-doomed")
        doomed = Skeleton(doomed_impl, transport, doomed_ep.endpoint_id).ref()
        survivor = Skeleton(
            _Parkable(), transport,
            transport.add_endpoint("member-survivor").endpoint_id,
        ).ref()
        sentinel_impl = _FixedSentinel([doomed])
        sentinel = Skeleton(
            sentinel_impl, transport,
            transport.add_endpoint("sentinel").endpoint_id,
        ).ref()
        stub = ElasticStub(transport, lambda: sentinel, obs=obs)

        # Occupy the doomed member's only worker...
        parked: dict = {}
        parker = threading.Thread(
            target=lambda: parked.update(result=Stub(transport, doomed).park()),
            daemon=True,
        )
        parker.start()
        assert doomed_impl.entered.wait(timeout=10.0)

        # ...so the elastic call queues behind it.
        outcome: dict = {}

        def call():
            try:
                outcome["result"] = stub.ping(41)
            except BaseException as exc:  # surfaced by the asserts below
                outcome["error"] = exc

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        assert _wait_for(
            lambda: transport.dispatch_stats(doomed_ep.endpoint_id)["queued"] == 1
        ), "the elastic call never queued at the doomed member"

        sentinel_impl.members = [survivor]
        transport.kill(doomed_ep.endpoint_id)

        caller.join(timeout=10.0)
        assert not caller.is_alive(), "queued call neither failed nor retried"
        assert outcome == {"result": 41}, outcome

        registry = obs.registry
        assert registry.counter("rmi.client.calls").value == 1
        assert registry.counter("rmi.client.attempts").value == 2
        assert registry.counter("rmi.client.retries").value == 1

        # The job a worker had already started runs to completion.
        doomed_impl.gate.set()
        parker.join(timeout=10.0)
        assert parked == {"result": "released"}
    finally:
        transport.shutdown()


def test_blocking_callers_survive_pool_churn():
    """The shape of ``benchmarks/e2e/worker.py --mode leaks``: closed-loop
    callers while a thread grows and shrinks the pool."""
    obs = Observability()
    runtime = ElasticRuntime.local(transport="threaded", observability=obs)
    try:
        pool = runtime.new_pool(_EchoService, name="churned")
        assert _wait_for(
            lambda: sum(
                m.state is MemberState.ACTIVE
                for m in list(pool.members.values())
            ) >= 4
        )
        agent = runtime.record("churned").sentinel_agent
        stub = runtime.stub("churned")
        assert stub.echo(0) == 0

        churn_error: list[BaseException] = []

        def churn():
            try:
                base = time.monotonic()
                for k in range(CYCLES):
                    time.sleep(max(0.0, base + k * PERIOD_S - time.monotonic()))
                    assert pool.grow(1) == 1
                    time.sleep(
                        max(0.0, base + k * PERIOD_S + HOLD_S - time.monotonic())
                    )
                    pool.shrink(1)
                    agent.tick()
            except BaseException as exc:
                churn_error.append(exc)

        churner = threading.Thread(target=churn, name="churn", daemon=True)
        calls = [0] * CALLERS
        failures: list[BaseException] = []

        def load(index: int):
            value = index
            while churner.is_alive():
                value += CALLERS
                calls[index] += 1
                try:
                    assert stub.echo(value) == value
                except BaseException as exc:
                    failures.append(exc)

        baseline_calls = obs.registry.counter("rmi.client.calls").value
        baseline_attempts = obs.registry.counter("rmi.client.attempts").value
        churner.start()
        loaders = [
            threading.Thread(target=load, args=(i,), daemon=True)
            for i in range(CALLERS)
        ]
        for t in loaders:
            t.start()
        churner.join(timeout=60.0)
        assert not churner.is_alive(), "churn thread wedged"
        for t in loaders:
            t.join(timeout=30.0)
            assert not t.is_alive(), "a caller never returned"

        assert churn_error == []
        assert not any(isinstance(e, CancelledError) for e in failures), failures
        assert failures == []

        # Every failed send was charged to its logical call and retried:
        # attempts = calls + retries, nothing escaped the accounting.
        registry = obs.registry
        logical = registry.counter("rmi.client.calls").value - baseline_calls
        attempts = (
            registry.counter("rmi.client.attempts").value - baseline_attempts
        )
        assert logical == sum(calls)
        assert attempts == logical + registry.counter("rmi.client.retries").value
        assert registry.counter("rmi.client.errors").value == 0
    finally:
        runtime.shutdown()
