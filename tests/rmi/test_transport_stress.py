"""Concurrency regressions in the transport layer.

Two bugs fixed alongside the fast-path work are pinned down here:

- ``messages_sent`` used an unsynchronized ``+= 1`` and lost counts under
  concurrent invokers; it is now a :class:`StripedCounter` and must be
  *exact*;
- ``ThreadedTransport.kill()`` removed the dispatcher but left the
  endpoint resolvable, so a racing invoke crashed with an internal
  "has no dispatcher" error instead of the ``ConnectError`` the elastic
  stub's retry loop feeds on.
"""

from __future__ import annotations

import threading

import pytest

from repro.concurrency import StripedCounter
from repro.errors import ConnectError
from repro.rmi.transport import (
    DirectTransport,
    Request,
    Response,
    ThreadedTransport,
)


class TestStripedCounter:
    def test_single_thread_counts(self):
        counter = StripedCounter()
        for _ in range(10):
            counter.increment()
        counter.increment(5)
        assert counter.value() == 15
        assert int(counter) == 15

    def test_concurrent_increments_are_exact(self):
        counter = StripedCounter()
        threads, per_thread = 8, 10_000

        def worker():
            for _ in range(per_thread):
                counter.increment()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert counter.value() == threads * per_thread

    def test_counts_survive_thread_death(self):
        counter = StripedCounter()
        t = threading.Thread(target=lambda: counter.increment(3))
        t.start()
        t.join()
        counter.increment()
        assert counter.value() == 4


def _echo_handler(request: Request) -> Response:
    return Response(kind="result", payload=b"")


class TestMessagesSentExactness:
    def test_concurrent_invokers_lose_no_counts(self):
        """The satellite fix: N threads x M calls must count to exactly
        N*M — the old unsynchronized += dropped increments."""
        transport = DirectTransport()
        ep = transport.add_endpoint("counted")
        ep.export("obj", _echo_handler)
        request = Request(object_id="obj", method="echo", payload=b"")
        threads, per_thread = 16, 2_000

        def caller():
            for _ in range(per_thread):
                transport.invoke(ep.endpoint_id, request)

        pool = [threading.Thread(target=caller) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert transport.messages_sent == threads * per_thread

    def test_threaded_transport_counts_exactly(self):
        transport = ThreadedTransport(workers_per_endpoint=4)
        try:
            ep = transport.add_endpoint("counted")
            ep.export("obj", _echo_handler)
            request = Request(object_id="obj", method="echo", payload=b"")
            threads, per_thread = 8, 200

            def caller():
                for _ in range(per_thread):
                    transport.invoke(ep.endpoint_id, request)

            pool = [threading.Thread(target=caller) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            assert transport.messages_sent == threads * per_thread
        finally:
            transport.shutdown()

    def test_failed_resolves_are_not_counted(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("dead")
        ep.export("obj", _echo_handler)
        transport.kill(ep.endpoint_id)
        request = Request(object_id="obj", method="echo", payload=b"")
        with pytest.raises(ConnectError):
            transport.invoke(ep.endpoint_id, request)
        assert transport.messages_sent == 0


class TestKilledEndpointStaysResolvable:
    def test_killed_threaded_endpoint_raises_is_down(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("victim")
            ep.export("obj", _echo_handler)
            transport.kill(ep.endpoint_id)
            request = Request(object_id="obj", method="echo", payload=b"")
            with pytest.raises(ConnectError, match="is down"):
                transport.invoke(ep.endpoint_id, request)
        finally:
            transport.shutdown()

    def test_missing_dispatcher_race_surfaces_as_is_down(self):
        """A caller that resolved the endpoint just before kill() finds
        the dispatcher gone; that must read as the same 'is down'
        ConnectError, never as a missing-dispatcher internal error."""
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("victim")
            ep.export("obj", _echo_handler)
            # kill closes the endpoint's pool and revive leaves such an
            # endpoint down, so the call reads the same "is down"
            # ConnectError the pool gives a call that raced the kill.
            transport.kill(ep.endpoint_id)
            transport.revive(ep.endpoint_id)
            request = Request(object_id="obj", method="echo", payload=b"")
            with pytest.raises(ConnectError, match="is down"):
                transport.invoke(ep.endpoint_id, request)
        finally:
            transport.shutdown()

    def test_killing_one_endpoint_leaves_others_serving(self):
        transport = ThreadedTransport()
        try:
            victim = transport.add_endpoint("victim")
            victim.export("obj", _echo_handler)
            survivor = transport.add_endpoint("survivor")
            survivor.export("obj", _echo_handler)
            transport.kill(victim.endpoint_id)
            request = Request(object_id="obj", method="echo", payload=b"")
            response = transport.invoke(survivor.endpoint_id, request)
            assert response.kind == "result"
        finally:
            transport.shutdown()
