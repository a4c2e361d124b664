"""A pool member brings its own ``@blocking`` capacity (live, wall clock).

In the paper each member is a JVM on a slice of its own, so a handler
that blocks holds a thread of *its* member, and growing the pool grows
the capacity for such work.  On the asyncio transport every member runs
its ``@blocking`` calls on a pool of its own workers; this probe checks
that doubling the members nearly doubles the throughput of 1,600
concurrent 4 ms calls.  The bound is loose (1.6x, against about 1.9x
measured on a 2-CPU host) because the host is shared; a transport whose
members share one pool reads about 1.1x.
"""

from __future__ import annotations

import threading
import time

from repro.rmi.aio import AsyncioTransport, blocking
from repro.rmi.fastpath import marshal_call
from repro.rmi.remote import Remote, Skeleton
from repro.rmi.transport import Request

CALLS = 1_600
SERVICE_S = 0.004
ROUNDS = 2


class _Sleeper(Remote):
    @blocking
    def work(self, value):
        time.sleep(SERVICE_S)
        return value


def _wave(transport, targets, calls):
    """Submit ``calls`` calls round-robin over ``targets`` at once and
    wait for every reply; the wall time it took."""
    remaining = [calls]
    lock, finished = threading.Lock(), threading.Event()
    errors = []

    def on_done(reply, error):
        if error is not None or reply.kind != "result":
            errors.append(error or reply.kind)
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                finished.set()

    started = time.perf_counter()
    for k in range(calls):
        endpoint_id, request = targets[k % len(targets)]
        transport.submit(endpoint_id, request, on_done)
    assert finished.wait(timeout=60.0)
    elapsed = time.perf_counter() - started
    assert errors == []
    return elapsed


def _throughput(members):
    transport = AsyncioTransport()
    try:
        targets = []
        for i in range(members):
            endpoint = transport.add_endpoint(f"member-{i}")
            skeleton = Skeleton(_Sleeper(), transport, endpoint.endpoint_id)
            request = Request(skeleton.object_id, "work", marshal_call((i,), {}))
            targets.append((endpoint.endpoint_id, request))
        _wave(transport, targets, 16 * members)  # start every worker
        return max(CALLS / _wave(transport, targets, CALLS) for _ in range(ROUNDS))
    finally:
        transport.shutdown()


def test_four_members_serve_blocking_work_faster_than_two():
    two, four = _throughput(2), _throughput(4)
    assert four >= 1.6 * two, (two, four)
