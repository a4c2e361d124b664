"""In-process transports: how requests travel between "JVMs".

Every pool member (and every client) lives at an :class:`Endpoint`, the
stand-in for one JVM at one IP:port.  Two transports move
:class:`Request`/:class:`Response` pairs between endpoints:

- :class:`DirectTransport` — synchronous delivery in the caller's thread.
  Deterministic; used by unit tests and by the simulation experiments.
- :class:`ThreadedTransport` — the live mode the examples use: the
  same delivery, plus a bounded pool per endpoint that runs a
  ``@blocking`` call or a batch's chunks while the caller waits.

The invoke path is engineered to be contention-free (the fast-path
invariants DESIGN.md documents):

- the endpoint map is *read-mostly*: lookups read a plain dict with no
  lock; membership changes copy-on-write a fresh dict under the admin
  lock and publish it with one atomic reference store;
- per-endpoint state (alive flag, exported objects, dispatch pool) is
  guarded by that endpoint's own lock, so killing one endpoint never
  stalls traffic to the others;
- ``messages_sent`` is a :class:`~repro.concurrency.StripedCounter`, so
  concurrent callers never lose counts and never serialize on it;
- the threaded hand-off of a ``@blocking`` call (caller -> dispatch
  thread -> caller) is one ``SimpleQueue.put`` of a slotted job record
  and one release of the lock the caller is parked on — no ``Future``,
  no ``Condition``, no per-call closure, no lock shared between callers.
  Each endpoint owns one pool (:class:`_Dispatcher`, also where the
  asyncio transport runs ``@blocking`` calls), whose (at most
  ``workers_per_endpoint``) workers spawn only when a job finds none
  free.  A queued job is always *completed* — run by a worker, or
  failed by the pool's ``close`` — never dropped.

Endpoints can be killed to model JVM crashes; invoking a dead or unknown
endpoint raises :class:`ConnectError`, which the elastic stub's retry loop
feeds on (paper section 4.3: "if the sending itself fails, the remote
method invocation throws an exception which is intercepted by the client
stub").  A killed endpoint stays *resolvable*, its pool closed, so the
failure always surfaces as the "endpoint ... is down" ConnectError the
retry loop expects — for a call after the kill, one racing it, and a
``@blocking`` one already queued behind a busy worker (started jobs,
and plain calls past resolution, run to completion), as for any call
after ``shutdown()``.  ``revive`` leaves an endpoint whose pool was
closed down.
"""

from __future__ import annotations

import inspect
import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Protocol, Sequence

from repro.concurrency import StripedCounter
from repro.errors import ConnectError, RemoteError
from repro.rmi.fastpath import FastPayload

_endpoint_ids = itertools.count(1)


class Request(NamedTuple):
    """One remote method invocation on the wire.

    ``payload`` is the marshalled ``(args, kwargs)``: pickled bytes on
    the pass-by-value path, a :class:`FastPayload` on the zero-copy path.

    An immutable value record.  Every call builds one (and every reply
    a :class:`Response`), so both are named tuples: one builds in about
    a third of a frozen dataclass's time.  Hot paths build them
    positionally.
    """

    object_id: str
    method: str
    payload: bytes | FastPayload
    caller: str = "?"


class Response(NamedTuple):
    """The server's reply.

    ``kind``:
      - ``result`` — payload is the marshalled return value;
      - ``error`` — payload is the marshalled application exception;
      - ``redirect`` — value is a RemoteRef the caller should retry at
        (server-side load balancing, paper section 4.3);
      - ``drained`` — the member is shutting down; retry elsewhere;
      - ``unresolved`` — batch-only: this entry's object was not
        exported at the endpoint.  The client batcher converts it to the
        same :class:`ConnectError` a non-batched call would have raised,
        so the elastic retry loop treats both identically.
    """

    kind: str
    payload: bytes | FastPayload = b""
    value: Any = None


@dataclass(frozen=True)
class BatchRequest:
    """One wire message carrying several logical invocations.

    The client-side batcher coalesces concurrent calls bound for the
    same endpoint into one of these; the transport delivers it as a
    *single* message — one fault-hook consultation, one
    ``messages_sent`` increment — and unbatches on the server side: each
    run of consecutive entries for one skeleton in one pass of its run
    handler, which keeps redirects, statistics and errors per logical
    call while it admits and counts the run once.

    Entry payloads travel exactly as they were marshalled (pickled
    bytes or zero-copy :class:`FastPayload`); batching never re-wraps
    or copies them.
    """

    entries: tuple[Request, ...]
    caller: str = "?"

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class BatchResponse:
    """Per-entry replies for one :class:`BatchRequest`, in entry order."""

    entries: tuple[Response, ...]

    def __len__(self) -> int:
        return len(self.entries)


RequestHandler = Callable[[Request], Response]


class _Handler:
    """A bare handler callable given a skeleton's surface, so every
    transport serves whatever is exported one way.  On the loop a
    coroutine it hands back becomes a task; none of its calls blocks a
    thread the asyncio transport must spare."""

    __slots__ = ("handle",)

    def __init__(self, handle: RequestHandler) -> None:
        self.handle = handle

    def handle_run(self, requests: Sequence[Request], loop: Any = None) -> list:
        return [
            loop.create_task(reply)
            if loop is not None and inspect.iscoroutine(reply) else reply
            for reply in map(self.handle, requests)
        ]

    def offloads(self, name: str) -> bool:
        return False


@dataclass
class Endpoint:
    """One process/JVM: an address plus the objects exported from it.

    ``objects`` maps each object id to its *target*, the server-side
    dispatcher every transport asks directly: a
    :class:`~repro.rmi.remote.Skeleton`, or a bare handler callable
    wrapped once at export.  A target serves a run of consecutive
    calls to its object in one pass (``handle_run``: a batch's entries,
    and on the asyncio transport an unbatched call too, as a run of
    one; given the loop, it hands back a task for a call that waits)
    and an unbatched call off the loop (``handle``), and says per
    method name whether a call blocks a thread (``offloads``): both
    live transports then run its ``handle`` on the endpoint's pool.
    Each endpoint carries its own lock for state transitions (export,
    unexport, kill, revive); ``objects`` is copy-on-write, so the
    invoke path reads it without locking.
    ``pool`` is the endpoint's :class:`_Dispatcher`, made by its
    transport on first use and closed, for good, when it is killed.
    """

    name: str
    endpoint_id: str = field(
        default_factory=lambda: f"ep-{next(_endpoint_ids)}"
    )
    objects: dict[str, Any] = field(default_factory=dict)
    alive: bool = True
    pool: _Dispatcher | None = field(default=None, repr=False, compare=False)
    lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def export(self, object_id: str, target: Any) -> None:
        """Export ``target`` (a skeleton, or a bare handler callable) as
        ``object_id``; exporting an id twice raises ``ValueError``."""
        if callable(target):
            target = _Handler(target)
        with self.lock:
            if object_id in self.objects:
                raise ValueError(f"object already exported: {object_id}")
            self.objects = {**self.objects, object_id: target}

    def unexport(self, object_id: str) -> None:
        with self.lock:
            self.objects = {
                key: target for key, target in self.objects.items()
                if key != object_id
            }


class Transport(Protocol):
    """Moves requests between endpoints."""

    # True when invocations really block OS threads (the live threaded
    # transport); False for deterministic in-thread delivery, where the
    # batcher's in-flight window is unbounded.
    concurrent: bool

    def add_endpoint(self, name: str) -> Endpoint: ...

    def invoke(self, endpoint_id: str, request: Request) -> Response: ...

    def invoke_batch(self, endpoint_id: str, batch: BatchRequest) -> BatchResponse: ...

    def kill(self, endpoint_id: str) -> None: ...

    def endpoint(self, endpoint_id: str) -> Endpoint: ...


# A fault hook sees every request about to be delivered and may raise
# (ConnectError for a drop, RemoteError for an injected timeout) or sleep
# to model network faults.  Returning normally lets the request through.
FaultHook = Callable[[str, Request], None]


class _TransportBase:
    concurrent = False
    # Workers in each endpoint's pool: one budget per member, on every
    # transport (ThreadedTransport takes it as ``workers_per_endpoint``).
    _workers = 4

    def __init__(self) -> None:
        # Read-mostly map: reads are lock-free, mutations copy-on-write
        # under the admin lock and publish atomically.
        self._endpoints: dict[str, Endpoint] = {}
        self._admin_lock = threading.RLock()
        self._messages = StripedCounter()
        self._fault_hook: FaultHook | None = None
        # Observability: None keeps the invoke path at one extra branch.
        self._tracer = None
        self._obs = None
        # Process pool for @cpu_bound methods; created lazily by the
        # concurrent transports, permanently None on DirectTransport so
        # deterministic tests stay single-process.
        self._cpu_executor = None
        self._closed = False

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with None) a :class:`repro.obs.Tracer`.

        Message events record endpoint *names*, never process-global
        ``ep-N`` ids, so seeded traces are identical across runs."""
        self._tracer = tracer

    def set_obs(self, obs) -> None:
        """Attach (or detach, with None) a full observability context.

        Beyond the tracer this unlocks transport-owned metrics — pool
        saturation gauges, loop-lag histograms on the asyncio transport.
        ``set_tracer`` alone serves trace-only consumers."""
        with self._admin_lock:
            self._obs = obs
            self.set_tracer(None if obs is None else obs.tracer)
            executor = self._cpu_executor
            if executor is not None:
                executor.set_obs(obs)
            for ep in self._endpoints.values():
                if ep.pool is not None:
                    ep.pool.set_obs(obs)

    def _pool(self, ep: Endpoint) -> _Dispatcher:
        """``ep``'s dispatch pool, made on first use: the "is down"
        ConnectError instead once ``ep`` is dead or the transport shut
        down, so no pool outlives its endpoint unclosed."""
        with self._admin_lock, ep.lock:
            pool = ep.pool
            if pool is None:
                down = f"endpoint {ep.endpoint_id} ({ep.name}) is down"
                if self._closed or not ep.alive:
                    raise ConnectError(down)
                pool = ep.pool = _Dispatcher(ep.name, down, self._workers)
                pool.set_obs(self._obs)
        return pool

    def dispatch_stats(self, endpoint_id: str) -> dict[str, int] | None:
        """Point-in-time saturation view of one endpoint's pool (zeros
        before it has one; None for an unknown endpoint).

        ``queued`` is jobs waiting for a worker, ``busy`` is workers
        running one; ``queued > 0`` with ``busy == workers`` is the
        saturation signature.
        """
        ep = self._endpoints.get(endpoint_id)
        if ep is None:
            return None
        pool = ep.pool
        queued, busy = (0, 0) if pool is None else pool.stats.snapshot()
        return {"queued": queued, "busy": busy, "workers": self._workers}

    def _close_pools(self) -> None:
        """Close every endpoint's pool (end of a session)."""
        self._closed = True
        for ep in self._endpoints.values():
            with ep.lock:
                pool = ep.pool
            if pool is not None:
                pool.close()

    def cpu_executor(self):
        """The transport's :class:`~repro.rmi.cpu.CpuExecutor`, or None.

        The base returns whatever was injected with
        :meth:`set_cpu_executor`; skeletons treat None as "run
        ``@cpu_bound`` methods inline" (the DirectTransport behaviour).
        """
        return self._cpu_executor

    def set_cpu_executor(self, executor) -> None:
        """Inject a (possibly shared) cpu executor; None detaches it.

        The transport does not take ownership of an injected executor —
        :meth:`shutdown` only stops pools the transport created itself.
        """
        self._cpu_executor = executor
        self._owns_cpu_executor = False

    def _ensure_cpu_executor(self):
        """Create the pool on first use — endpoints that never export a
        ``@cpu_bound`` method never pay for worker processes."""
        executor = self._cpu_executor
        if executor is None:
            with self._admin_lock:
                executor = self._cpu_executor
                if executor is None:
                    from repro.rmi.cpu import CpuExecutor

                    executor = CpuExecutor(obs=self._obs)
                    self._cpu_executor = executor
                    self._owns_cpu_executor = True
        return executor

    def _shutdown_cpu_executor(self) -> None:
        with self._admin_lock:
            executor = self._cpu_executor
            owned = getattr(self, "_owns_cpu_executor", False)
            self._cpu_executor = None
        if executor is not None and owned:
            executor.shutdown()

    def install_fault_hook(self, hook: FaultHook | None) -> None:
        """Install (or clear, with None) a fault-injection hook.

        The hook runs after the endpoint resolves but before delivery
        counts, so an injected drop is indistinguishable on the wire
        from a message that never arrived.
        """
        self._fault_hook = hook

    @property
    def messages_sent(self) -> int:
        """Total requests delivered (exact even under concurrency)."""
        return self._messages.value()

    def add_endpoint(self, name: str) -> Endpoint:
        ep = Endpoint(name=name)
        with self._admin_lock:
            endpoints = dict(self._endpoints)
            endpoints[ep.endpoint_id] = ep
            self._endpoints = endpoints
        return ep

    def endpoint(self, endpoint_id: str) -> Endpoint:
        ep = self._endpoints.get(endpoint_id)
        if ep is None:
            raise ConnectError(f"unknown endpoint: {endpoint_id}")
        return ep

    def kill(self, endpoint_id: str) -> None:
        """Crash an endpoint: subsequent invokes raise ConnectError.

        The endpoint record is kept (dead but resolvable), so callers
        racing the kill still get the "is down" ConnectError; its pool
        fails what is queued with it and lets running jobs finish."""
        ep = self._endpoints.get(endpoint_id)
        if ep is not None:
            with ep.lock:
                ep.alive = False
                pool = ep.pool
            if pool is not None:
                pool.close()

    def revive(self, endpoint_id: str) -> None:
        """Bring a killed endpoint back, unless its pool closed with it."""
        ep = self._endpoints.get(endpoint_id)
        if ep is not None:
            with ep.lock:
                if ep.pool is None:
                    ep.alive = True

    def _resolve(
        self, endpoint_id: str, request: Request
    ) -> tuple[Endpoint, Any]:
        ep = self._resolve_endpoint(endpoint_id)
        target = ep.objects.get(request.object_id)
        if target is None:
            raise ConnectError(
                f"no object {request.object_id!r} at endpoint {ep.name}"
            )
        return ep, target

    def _resolve_endpoint(self, endpoint_id: str) -> Endpoint:
        """Endpoint-level resolution for a batch: alive, on a transport
        not shut down, or the "is down" ConnectError.

        Per-entry object lookup is deferred to dispatch time so one
        stale entry cannot fail the whole wire message."""
        ep = self.endpoint(endpoint_id)
        if not ep.alive or self._closed:
            raise ConnectError(f"endpoint {endpoint_id} ({ep.name}) is down")
        return ep

    def _deliver(
        self, endpoint_id: str, ep: Endpoint, message: Request | BatchRequest
    ) -> None:
        """One resolved wire message's bookkeeping on both sync
        transports: the fault hook once (a batch as its
        :func:`batch_envelope`: a drop loses it whole, as a lost packet
        would), one ``messages_sent``, one trace event."""
        hook = self._fault_hook
        if hook is not None:
            hook(endpoint_id, message if type(message) is Request
                 else batch_envelope(message))
        self._messages.increment()
        if self._tracer is not None:
            self._trace_message(ep, message)

    def _set_timeout(self, timeout: float | None) -> None:
        """A live transport's deadline for a message that waits: None
        (no deadline) or a positive number of seconds."""
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout must be None or positive, not {timeout!r}")
        self._timeout = timeout

    def _timeout_error(self, message: Request | BatchRequest) -> RemoteError:
        what = (
            f"batch of {len(message.entries)} invocations"
            if type(message) is BatchRequest
            else f"invocation of {message.method!r}"
        )
        return RemoteError(f"{what} timed out after {self._timeout}s")

    def _trace_message(self, ep: Endpoint, message: Request | BatchRequest) -> None:
        """The transport trace event of one wire message (tracer set)."""
        if type(message) is BatchRequest:
            self._tracer.emit(
                "transport", "batch-message",
                endpoint=ep.name, size=len(message.entries),
                caller=message.caller,
            )
        else:
            self._tracer.emit(
                "transport", "message",
                endpoint=ep.name, method=message.method, caller=message.caller,
            )


_object_id = attrgetter("object_id")


def _serve(ep: Endpoint, requests: Sequence[Request]) -> list[Response]:
    """A batch's replies, its entries served in order on this thread:
    each run of consecutive entries for one object in one pass of its
    target's ``handle_run``."""
    replies: list[Response] = []
    for object_id, entries in itertools.groupby(requests, _object_id):
        target = ep.objects.get(object_id)
        if target is None:
            replies.extend(
                Response(kind="unresolved", value=object_id) for _ in entries
            )
        else:
            replies.extend(target.handle_run(list(entries)))
    return replies


def batch_envelope(batch: BatchRequest) -> Request:
    """The Request-shaped view of a batch that fault hooks observe.

    Hooks see one message per batch (drop rates are per wire message,
    not per logical call); ``method`` carries the coalesced size so
    injector traces stay readable.
    """
    return Request(
        object_id="ermi.batch",
        method=f"ermi.batch[{len(batch.entries)}]",
        payload=b"",
        caller=batch.caller,
    )


class DirectTransport(_TransportBase):
    """Synchronous, deterministic delivery in the caller's thread."""

    def invoke(self, endpoint_id: str, request: Request) -> Response:
        ep, target = self._resolve(endpoint_id, request)
        self._deliver(endpoint_id, ep, request)
        return target.handle(request)

    def invoke_batch(self, endpoint_id: str, batch: BatchRequest) -> BatchResponse:
        """Deliver a batch deterministically: one wire message, then its
        entries in order in the caller's thread (:func:`_serve`)."""
        ep = self._resolve_endpoint(endpoint_id)
        self._deliver(endpoint_id, ep, batch)
        return BatchResponse(entries=tuple(_serve(ep, batch.entries)))


class _DispatchStats:
    """Saturation counters for one endpoint's dispatch pool: three
    monotone striped counters, giving ``queued = submitted - started``
    and ``busy = started - finished`` — each exact, the differences
    point-in-time estimates."""

    __slots__ = ("submitted", "started", "finished")

    def __init__(self) -> None:
        self.submitted = StripedCounter()
        self.started = StripedCounter()
        self.finished = StripedCounter()

    def snapshot(self) -> tuple[int, int]:
        """``(queued, busy)`` from one read of each counter.

        A job moves submitted -> started -> finished, so reading the
        counters in the reverse order keeps both differences
        non-negative: read skew can only overstate, never go below 0.
        """
        finished = self.finished.value()
        started = self.started.value()
        submitted = self.submitted.value()
        return submitted - started, started - finished


class _Job:
    """One hand-off: what to run, and the one-shot slot its outcome lands in.

    A :class:`_Dispatcher` runs any record of this shape: a worker sets
    ``result = fn(arg)`` (or ``error``) and calls ``finish()``;
    :meth:`_Dispatcher.close` sets ``error`` and calls it instead.  Here
    ``done`` is born locked, the caller parks on it, and ``finish``
    releases it; the asyncio transport's jobs fill their message's
    record instead.
    """

    __slots__ = ("fn", "arg", "result", "error", "done", "finish")

    def __init__(self, fn: Callable[[Any], Any], arg: Any) -> None:
        self.fn = fn
        self.arg = arg
        self.result = None
        self.error: BaseException | None = None
        done = threading.Lock()
        done.acquire()
        self.done = done
        self.finish = done.release

    def outcome(self) -> Any:
        """The result, or the handler's exception re-raised in the caller.

        Only valid once ``done`` has been acquired."""
        error = self.error
        if error is None:
            return self.result
        # The traceback is about to hold the caller's frames, which hold
        # this job: drop the job's reference so no cycle forms.
        self.error = None
        try:
            raise error
        finally:
            del error


class _Dispatcher:
    """One endpoint's bounded dispatch pool, on both live transports.

    At most ``workers`` daemon threads, spawned only when a job arrives
    and no worker is free, block in ``SimpleQueue.get`` and run
    :class:`_Job`-shaped records: one queue put per call, no shared lock
    on the submit path.  ``_idle`` holds one token per worker known to
    be free (list append/pop are atomic), so a single closed-loop caller
    only ever starts one thread.  Every queued job is finished exactly
    once: run by a worker, or failed by :meth:`close` with the
    ``ConnectError`` a dead endpoint raises.
    """

    __slots__ = (
        "name", "stats", "gauges", "_down", "_workers", "_queue", "_idle",
        "_lock", "_spawned", "_closed",
    )

    def __init__(self, name: str, down: str, workers: int) -> None:
        self.name = name
        self.stats = _DispatchStats()
        # (queued, busy) gauges while an Observability is attached.
        self.gauges: tuple[Any, Any] | None = None
        self._down = down
        self._workers = workers
        self._queue: queue.SimpleQueue[_Job | None] = queue.SimpleQueue()
        self._idle: list[None] = []
        self._lock = threading.Lock()  # spawn and close only
        self._spawned = 0
        self._closed = False

    def set_obs(self, obs: Any) -> None:
        """Resolve the two saturation gauges once (None detaches them)."""
        self.gauges = None if obs is None else (
            obs.registry.gauge(f"rmi.server.dispatch_queued.{self.name}"),
            obs.registry.gauge(f"rmi.server.dispatch_busy.{self.name}"),
        )

    def submit(self, job: Any) -> None:
        """Queue ``job`` (see :class:`_Job`) for a worker, refreshing the
        saturation gauges — when queue depth can only have grown."""
        if self._closed:
            raise ConnectError(self._down)
        if self._spawned < self._workers:
            try:
                self._idle.pop()
            except IndexError:
                self._spawn()
        stats = self.stats
        stats.submitted.increment()
        self._queue.put(job)
        if self._closed:
            # Raced close(): its sweep may have passed before our put,
            # and no worker may be left.  Sweep again so the job is
            # failed like the ones close() found, not stranded.
            self._fail_queued()
        gauges = self.gauges
        if gauges is not None:
            queued, busy = stats.snapshot()
            gauges[0].set(float(queued))
            gauges[1].set(float(busy))

    def _spawn(self) -> None:
        with self._lock:
            if self._closed:
                raise ConnectError(self._down)
            if self._spawned < self._workers:
                threading.Thread(
                    target=self._work,
                    name=f"erm-{self.name}_{self._spawned}",
                    daemon=True,
                ).start()
                self._spawned += 1

    def _work(self) -> None:
        get = self._queue.get
        started = self.stats.started.increment
        finished = self.stats.finished.increment
        idle = self._idle
        workers = self._workers
        while True:
            job = get()
            if job is None:
                return
            started()
            try:
                job.result = job.fn(job.arg)
            except BaseException as exc:  # re-raised in the caller
                job.error = exc
            # Bookkeeping before the release: a caller that returns must
            # already see this worker as finished and free.
            finished()
            if self._spawned < workers:
                idle.append(None)
            job.finish()
            # Do not pin the last request/response while parked in get().
            del job

    def close(self) -> None:
        """Fail what is queued, let running jobs finish, stop the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._fail_queued()
        for _ in range(self._spawned):
            self._queue.put(None)

    def _fail_queued(self) -> None:
        stats = self.stats
        sentinels = 0
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is None:
                sentinels += 1
                continue
            # Leaves the queue without ever being busy.
            stats.started.increment()
            stats.finished.increment()
            job.error = ConnectError(self._down)
            job.finish()
        # A submit racing close() sweeps too; hand back the workers'
        # exit sentinels it may have picked up.
        for _ in range(sentinels):
            self._queue.put(None)


class ThreadedTransport(DirectTransport):
    """Live transport: :class:`DirectTransport` plus member pools.  A
    ``@blocking`` call and a batch's chunks run on the endpoint's pool,
    within ``timeout`` (None: no deadline)."""

    concurrent = True

    def __init__(self, workers_per_endpoint: int = 4, timeout: float | None = 30.0):
        super().__init__()
        if workers_per_endpoint < 1:
            raise ValueError("workers_per_endpoint must be at least 1")
        self._workers = workers_per_endpoint
        self._set_timeout(timeout)

    def add_endpoint(self, name: str) -> Endpoint:
        # The pool comes with the endpoint, and stays closed once killed.
        ep = super().add_endpoint(name)
        self._pool(ep)
        return ep

    def invoke(self, endpoint_id: str, request: Request) -> Response:
        ep, target = self._resolve(endpoint_id, request)
        self._deliver(endpoint_id, ep, request)
        if not target.offloads(request.method):
            return target.handle(request)
        return self._run(ep, request, [_Job(target.handle, request)])[0]

    def invoke_batch(
        self, endpoint_id: str, batch: BatchRequest
    ) -> BatchResponse:
        """Deliver a batch and dispatch its entries in parallel: one
        contiguous chunk per endpoint worker (a 64-call batch costs ~4
        jobs, not 64), run in order and reassembled in entry order.  One
        deadline covers the whole batch, raising the same
        :class:`RemoteError` a single slow invocation would."""
        ep = self._resolve_endpoint(endpoint_id)
        self._deliver(endpoint_id, ep, batch)
        requests = batch.entries
        if not requests:
            return BatchResponse(entries=())
        chunk_count = min(self._workers, len(requests))
        size, extra = divmod(len(requests), chunk_count)
        serve = partial(_serve, ep)
        jobs = []
        start = 0
        for i in range(chunk_count):
            stop = start + size + (1 if i < extra else 0)
            jobs.append(_Job(serve, requests[start:stop]))
            start = stop
        replies = itertools.chain.from_iterable(self._run(ep, batch, jobs))
        return BatchResponse(entries=tuple(replies))

    def _run(
        self, ep: Endpoint, message: Request | BatchRequest, jobs: list[_Job]
    ) -> list[Any]:
        """Queue ``jobs`` on ``ep``'s pool and wait for their outcomes, in
        order, within one deadline (a pool a kill closed since the call
        resolved refuses it "is down")."""
        pool = ep.pool
        for job in jobs:
            pool.submit(job)
        timeout = self._timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes = []
        for job in jobs:
            wait = -1 if deadline is None else max(0.0, deadline - time.monotonic())
            if not job.done.acquire(True, wait):
                raise self._timeout_error(message)
            outcomes.append(job.outcome())
        return outcomes

    def cpu_executor(self):
        return self._ensure_cpu_executor()

    def shutdown(self) -> None:
        """Stop every pool and the cpu pool (end of a session)."""
        self._close_pools()
        self._shutdown_cpu_executor()
