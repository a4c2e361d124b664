"""One call machine, six ways to drive it.

The client protocol is written once (``ElasticStub._call`` over
``rmi.remote.attempt``) and stepped either by the blocking driver or by
the completion driver.  Every scenario here runs on all six ways a call
can be driven and asserts the same outcome, the same
``rmi.client.calls/attempts/retries`` deltas and the same ``call`` trace
event on each: a logical call is charged exactly its attempts no matter
how its sends travelled.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

import pytest

from repro.core.balancer import ElasticStub
from repro.errors import ApplicationError, ConnectError, RemoteError
from repro.obs import Observability
from repro.rmi.aio import AsyncioTransport, blocking
from repro.rmi.batching import RequestBatcher
from repro.rmi.future import gather
from repro.rmi.remote import MAX_REDIRECTS, Remote, Skeleton, Stub
from repro.rmi.transport import DirectTransport, ThreadedTransport

from tests.faults.test_cpu_crash import _FixedSentinel

WAIT_S = 30.0


@dataclass
class Driver:
    """One way of driving a call: a transport, maybe a batcher, and
    whether single calls go through the sync proxy or ``invoke_async``."""

    transport: Any
    batched: bool
    proxy: bool

    def batcher(self) -> RequestBatcher | None:
        if not self.batched:
            return None
        return RequestBatcher(self.transport, max_batch=8, linger=0.0)

    def call(self, stub: Any, method: str, *args: Any) -> Any:
        if self.proxy:
            return getattr(stub, method)(*args)
        return stub.invoke_async(method, *args).result(timeout=WAIT_S)

    def window(self, stub: Any, method: str, values: list) -> list:
        futures = [stub.invoke_async(method, value) for value in values]
        return gather(futures, timeout=WAIT_S)


DRIVERS = {
    "direct-blocking": (DirectTransport, False, True),
    "direct-deferred-batcher": (DirectTransport, True, False),
    "threaded-blocking": (ThreadedTransport, False, True),
    "threaded-combiner": (ThreadedTransport, True, False),
    "asyncio-loop-native": (AsyncioTransport, False, False),
    "asyncio-loop-drain": (AsyncioTransport, True, False),
}


@pytest.fixture(params=list(DRIVERS))
def driver(request):
    transport_cls, batched, proxy = DRIVERS[request.param]
    transport = transport_cls()
    try:
        yield Driver(transport, batched, proxy)
    finally:
        shutdown = getattr(transport, "shutdown", None)
        if shutdown is not None:
            shutdown()


class Worker(Remote):
    def __init__(self):
        self.calls = 0

    def echo(self, value):
        self.calls += 1
        return value

    def boom(self, value):
        self.calls += 1
        raise ValueError(f"kaboom {value}")

    async def aecho(self, value):
        await asyncio.sleep(0)
        return value

    @blocking
    def becho(self, value):
        return value


def export(transport, impl, name):
    return Skeleton(impl, transport, transport.add_endpoint(name).endpoint_id)


class Rig:
    """Three members behind a fixed sentinel, a primed elastic stub, and
    the counters and ``call`` events recorded since priming.

    Priming is one call: it fetches the membership and takes rotation
    slot 0, so the next call's primary target is ``members[1]`` — the
    ``victim`` every fault below is aimed at.
    """

    COUNTERS = ("calls", "attempts", "retries")

    def __init__(self, driver: Driver, head: Skeleton | None = None):
        self.driver = driver
        transport = driver.transport
        self.members = [
            export(transport, Worker(), f"member-{i}") for i in range(3)
        ]
        if head is not None:
            self.members[1] = head
        self.victim = self.members[1]
        sentinel = export(
            transport,
            _FixedSentinel([m.ref() for m in self.members]),
            "sentinel",
        ).ref()
        self.obs = Observability()
        self.stub = ElasticStub(
            transport, lambda: sentinel, obs=self.obs, batcher=driver.batcher()
        )
        assert driver.call(self.stub, "echo", "prime") == "prime"
        self._base = self._counters()
        self._seen = len(self.obs.tracer.events(kind="call"))

    def _counters(self) -> tuple[int, ...]:
        registry = self.obs.registry
        return tuple(
            registry.counter(f"rmi.client.{name}").value
            for name in self.COUNTERS
        )

    def charged(self) -> tuple[int, ...]:
        """(calls, attempts, retries) since priming."""
        return tuple(
            now - base for now, base in zip(self._counters(), self._base)
        )

    def call_events(self) -> list[dict]:
        events = self.obs.tracer.events(kind="call")[self._seen:]
        return [event.field_dict() for event in events]

    def cached(self, skeleton: Skeleton) -> bool:
        return skeleton.ref() in self.stub.members_snapshot()

    def fail_once_at_victim(self, error: Exception) -> None:
        """The next wire message to the victim raises ``error``."""
        armed = [error]

        def hook(endpoint_id, request):
            if endpoint_id == self.victim.endpoint_id and armed:
                raise armed.pop()

        self.driver.transport.install_fault_hook(hook)


def call_event(attempts: int, outcome: str = "ok", rounds: int = 1) -> dict:
    return {
        "method": "echo", "attempts": attempts, "rounds": rounds,
        "ok": outcome == "ok", "outcome": outcome, "latency": 0.0,
        "caller": "client",
    }


def redirect_chain(transport, redirects: int) -> list[Skeleton]:
    """``redirects + 1`` skeletons; each bounces to the next, the last
    one serves."""
    chain = [
        export(transport, Worker(), f"hop-{i}") for i in range(redirects + 1)
    ]
    for skeleton, target in zip(chain, chain[1:]):
        skeleton.redirect_policy = lambda request, ref=target.ref(): ref
    return chain


class TestEveryDriverChargesTheSame:
    def test_plain_result(self, driver):
        rig = Rig(driver)
        assert driver.call(rig.stub, "echo", 7) == 7
        assert rig.charged() == (1, 1, 0)
        assert rig.call_events() == [call_event(1)]
        assert rig.victim.impl.calls == 1

    def test_application_error_is_never_retried(self, driver):
        rig = Rig(driver)
        with pytest.raises(ApplicationError) as raised:
            driver.call(rig.stub, "boom", 7)
        assert isinstance(raised.value.cause, ValueError)
        assert rig.charged() == (1, 1, 0)
        assert rig.call_events() == [
            {**call_event(1, "app-error"), "method": "boom"}
        ]
        assert sum(m.impl.calls for m in rig.members) == 2  # prime + boom
        assert rig.cached(rig.victim)

    def test_drained_member_is_discarded_and_the_call_goes_on(self, driver):
        rig = Rig(driver)
        rig.victim.start_drain()
        assert driver.call(rig.stub, "echo", 7) == 7
        assert rig.charged() == (1, 2, 1)
        assert rig.call_events() == [call_event(2)]
        assert rig.victim.impl.calls == 0
        assert not rig.cached(rig.victim)

    def test_dead_member_is_discarded_and_the_call_goes_on(self, driver):
        rig = Rig(driver)
        driver.transport.kill(rig.victim.endpoint_id)
        assert driver.call(rig.stub, "echo", 7) == 7
        assert rig.charged() == (1, 2, 1)
        assert rig.call_events() == [call_event(2)]
        assert not rig.cached(rig.victim)

    def test_one_dropped_message_costs_one_attempt(self, driver):
        rig = Rig(driver)
        rig.fail_once_at_victim(ConnectError("injected drop"))
        assert driver.call(rig.stub, "echo", 7) == 7
        assert rig.charged() == (1, 2, 1)
        assert rig.call_events() == [call_event(2)]
        assert rig.victim.impl.calls == 0

    def test_slow_member_costs_an_attempt_but_stays_cached(self, driver):
        rig = Rig(driver)
        rig.fail_once_at_victim(RemoteError("injected timeout"))
        assert driver.call(rig.stub, "echo", 7) == 7
        assert rig.charged() == (1, 2, 1)
        assert rig.call_events() == [call_event(2)]
        assert rig.cached(rig.victim)

    def test_all_members_dead_fails_after_two_rounds(self, driver):
        rig = Rig(driver)
        for member in rig.members:
            driver.transport.kill(member.endpoint_id)
        with pytest.raises(ConnectError, match="all members"):
            driver.call(rig.stub, "echo", 7)
        # Three members, walked once per round; the sentinel still
        # answers, so the second round re-fetches the same three.
        assert rig.charged() == (1, 6, 5)
        assert rig.call_events() == [call_event(6, "failed", rounds=2)]
        assert rig.obs.registry.counter("rmi.client.errors").value == 1

    def test_gathered_window_charges_only_the_calls_that_met_the_dead_member(
        self, driver
    ):
        rig = Rig(driver)
        driver.transport.kill(rig.victim.endpoint_id)
        values = list(range(6))
        assert driver.window(rig.stub, "echo", values) == values
        calls, attempts, retries = rig.charged()
        spent = sorted(event["attempts"] for event in rig.call_events())
        assert calls == len(spent) == 6
        assert set(spent) <= {1, 2}
        assert spent.count(2) == retries == attempts - calls
        if driver.batched:
            # Every target was chosen at submission, before any send
            # flew: slots 1 and 4 of the rotation are the dead member.
            assert spent.count(2) == 2
        else:
            # The first failure discards the member; whether a later
            # call still picks it depends on who runs first.
            assert 1 <= spent.count(2) <= 2

    def test_gathered_window_mixing_plain_async_and_blocking_methods(
        self, driver
    ):
        """However a member dispatches a method — inline, awaited in a
        task, offloaded — and whether or not it shares a batch with the
        other kinds, a call is one attempt with its own reply."""
        rig = Rig(driver)
        methods = ["echo", "aecho", "becho", "boom"] * 6
        futures = [
            rig.stub.invoke_async(method, i) for i, method in enumerate(methods)
        ]
        for i, (method, future) in enumerate(zip(methods, futures)):
            if method == "boom":
                with pytest.raises(ApplicationError, match=f"kaboom {i}"):
                    future.result(timeout=WAIT_S)
            else:
                assert future.result(timeout=WAIT_S) == i
        assert rig.charged() == (24, 24, 0)
        events = rig.call_events()
        assert sorted(
            (event["method"], event["outcome"]) for event in events
        ) == sorted(
            (method, "app-error" if method == "boom" else "ok")
            for method in methods
        )
        assert {event["attempts"] for event in events} == {1}


class TestRedirectBound:
    """``MAX_REDIRECTS`` are followed and one more fails the attempt —
    on both stubs and every driver (the sync unicast path used to stop
    one redirect short)."""

    def test_unicast_follows_the_bound(self, driver):
        chain = redirect_chain(driver.transport, MAX_REDIRECTS)
        stub = Stub(driver.transport, chain[0].ref(), batcher=driver.batcher())
        assert driver.call(stub, "echo", 7) == 7
        assert [s.impl.calls for s in chain] == [0] * MAX_REDIRECTS + [1]

    def test_unicast_fails_past_the_bound(self, driver):
        chain = redirect_chain(driver.transport, MAX_REDIRECTS + 1)
        stub = Stub(driver.transport, chain[0].ref(), batcher=driver.batcher())
        with pytest.raises(ApplicationError, match="redirect loop"):
            driver.call(stub, "echo", 7)
        assert sum(s.impl.calls for s in chain) == 0

    def test_elastic_follows_the_bound(self, driver):
        chain = redirect_chain(driver.transport, MAX_REDIRECTS)
        rig = Rig(driver, head=chain[0])
        assert driver.call(rig.stub, "echo", 7) == 7
        assert rig.charged() == (1, 1, 0)
        assert chain[-1].impl.calls == 1

    def test_elastic_goes_on_at_the_next_member_past_the_bound(self, driver):
        chain = redirect_chain(driver.transport, MAX_REDIRECTS + 1)
        rig = Rig(driver, head=chain[0])
        assert driver.call(rig.stub, "echo", 7) == 7
        assert rig.charged() == (1, 2, 1)
        assert rig.call_events() == [call_event(2)]
        assert sum(s.impl.calls for s in chain) == 0
        retry = rig.obs.tracer.events(kind="retry")[-1]
        assert retry.get("error") == "ConnectError"

    def test_unicast_window_re_dispatches_each_redirected_entry(self, driver):
        """``TestRedirectMidBatch`` of tests/faults, on every driver."""
        head, target = redirect_chain(driver.transport, 1)
        stub = Stub(driver.transport, head.ref(), batcher=driver.batcher())
        assert driver.window(stub, "echo", [0, 1, 2]) == [0, 1, 2]
        assert (head.impl.calls, target.impl.calls) == (0, 3)
