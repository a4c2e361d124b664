"""Remote objects, references, skeletons, and stubs.

The shapes follow Java RMI, with the two extra powers ElasticRMI's
preprocessor compiles into them (paper sections 2.3, 4.3):

- a :class:`Skeleton` keeps per-method call statistics (rate and latency
  over a window — the raw material for ``getMethodCallStats``), can be put
  into *drain* mode (reject new calls with a retry hint while pending ones
  finish) and can host a *redirect table* the sentinel installs to shed a
  fraction of its load onto other members;
- a :class:`Stub` is a dynamic proxy that marshals, invokes through the
  transport, follows redirects, and surfaces remote failures as
  :class:`RemoteError` subclasses.

``Stub`` here is the *unicast* stub (one fixed target, like plain RMI);
the pool-aware elastic stub with client-side load balancing lives in
:mod:`repro.core.balancer` and composes this one.

The client side of a call is a *call machine* — a generator that yields
each send and is resumed with its reply — stepped by one of two drivers:
:func:`attempt` is the machine both stubs share, :func:`run_call` the
blocking driver, :func:`start_call` the choice of driver behind
``invoke_async``.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from contextvars import copy_context
from dataclasses import dataclass
from functools import partial
from types import CoroutineType
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from repro.concurrency import ThreadStripes
from repro.errors import (
    ApplicationError,
    CpuWorkerLostError,
    MemberDrainedError,
    NoSuchObjectError,
    RemoteError,
)
from repro.rmi.fastpath import (
    marshal_call,
    marshal_error,
    marshal_result,
    register_immutable,
    unmarshal_call,
    unmarshal_result,
)
from repro.rmi.future import RmiFuture, async_executor, run_async
from repro.rmi.transport import Request, Response, Transport
from repro.sim.clock import Clock, WallClock

if TYPE_CHECKING:  # loaded where a loop runs: a threaded process never does
    import asyncio

_object_ids = itertools.count(1)


class Remote:
    """Marker base for remotely invocable classes (java.rmi.Remote)."""


@dataclass(frozen=True)
class RemoteRef:
    """A serializable pointer to one exported object: endpoint + object id.

    This is what registries store and what passes by reference in
    arguments.  ``uid`` is the pool-member unique identifier ElasticRMI
    assigns monotonically (used for sentinel election); plain RMI objects
    leave it at 0.
    """

    endpoint_id: str
    object_id: str
    uid: int = 0

    def describe(self) -> str:
        return f"{self.object_id}@{self.endpoint_id}(uid={self.uid})"


# A RemoteRef is a frozen value object: the zero-copy fast path may pass
# it by reference, which is precisely RMI's semantics for remote objects.
register_immutable(RemoteRef)


@dataclass
class MethodStats:
    """Aggregate statistics for one remote method over a window."""

    calls: int = 0
    total_latency: float = 0.0
    errors: int = 0

    def latency(self) -> float:
        """Mean latency per call (seconds); 0 when idle."""
        return 0.0 if self.calls == 0 else self.total_latency / self.calls


class _StatsStripe:
    """One writer thread's private window of per-method statistics.

    The stripe lock exists for the *reader* (window rolls must take each
    stripe exactly once); on the record path it is uncontended by
    construction — no two writer threads ever share a stripe."""

    __slots__ = ("lock", "methods")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.methods: dict[str, MethodStats] = {}


class CallStats:
    """Per-method statistics with window reset (burst-interval semantics).

    Thread-striped (:class:`~repro.concurrency.ThreadStripes`): the old
    implementation took one global lock per recorded call, which made the
    skeleton's stats the residual contention point on the dispatch hot
    path once the transports were striped.  Now each dispatcher thread
    records into its own stripe; the stripe lock it takes is never
    contended by another writer, only — briefly — by a window roll.
    Snapshots merge the stripes, and because a roll claims each stripe's
    window under that stripe's lock, every recorded call lands in exactly
    one window: nothing lost, nothing double-counted.
    """

    def __init__(self) -> None:
        self._stripes: ThreadStripes[_StatsStripe] = ThreadStripes(_StatsStripe)

    def record(
        self, method: str, latency: float, error: int = False, calls: int = 1
    ) -> None:
        """Record ``calls`` calls of ``method`` (one by default) that took
        ``latency`` seconds together, ``error`` of them failed (a count,
        or a flag for one call), in one write to this thread's stripe."""
        stripe = self._stripes.stripe()
        with stripe.lock:
            stats = stripe.methods.get(method)
            if stats is None:
                stats = stripe.methods[method] = MethodStats()
            stats.calls += calls
            stats.total_latency += latency
            if error:
                stats.errors += error

    @staticmethod
    def _merge(
        into: dict[str, MethodStats], window: dict[str, MethodStats]
    ) -> None:
        for name, stats in window.items():
            agg = into.setdefault(name, MethodStats())
            agg.calls += stats.calls
            agg.total_latency += stats.total_latency
            agg.errors += stats.errors

    def snapshot_and_reset(self) -> dict[str, MethodStats]:
        """Return the window's stats and start a fresh window."""
        merged: dict[str, MethodStats] = {}
        for stripe in self._stripes.stripes():
            with stripe.lock:
                window = stripe.methods
                stripe.methods = {}
            self._merge(merged, window)
        return merged

    def snapshot(self) -> dict[str, MethodStats]:
        merged: dict[str, MethodStats] = {}
        for stripe in self._stripes.stripes():
            with stripe.lock:
                window = {
                    name: MethodStats(s.calls, s.total_latency, s.errors)
                    for name, s in stripe.methods.items()
                }
            self._merge(merged, window)
        return merged

    def total_calls(self) -> int:
        total = 0
        for stripe in self._stripes.stripes():
            with stripe.lock:
                total += sum(s.calls for s in stripe.methods.values())
        return total


# Class -> does it declare a @cpu_bound method.  Weakly keyed: a class
# defined inside a test or a reloaded module is not pinned by its answer.
_cpu_bound_classes: "weakref.WeakKeyDictionary[type, bool]" = (
    weakref.WeakKeyDictionary()
)


def _declares_cpu_bound(cls: type) -> bool:
    """Does any method in the class's surface carry ``@cpu_bound``?

    Scanned once per class — every member of a pool activates the same
    class, and the scan (``dir`` plus a ``getattr`` per attribute) would
    otherwise sit in the path of every scale-up."""
    verdict = _cpu_bound_classes.get(cls)
    if verdict is None:
        verdict = any(
            getattr(getattr(cls, name, None), "__ermi_cpu_bound__", False)
            for name in dir(cls)
        )
        _cpu_bound_classes[cls] = verdict
    return verdict


# How a skeleton dispatches a method name, decided once per name
# (Skeleton._resolve).  _BLOCKING is what the asyncio transport runs on
# the member's own pool instead of the loop (Skeleton.offloads).
_REFUSED, _PLAIN, _BLOCKING, _CPU = range(4)

_DRAINED = Response("drained")


def _response(result: Any, error: Exception | None) -> Response:
    """Fold one call's outcome into its reply."""
    if error is None:
        return Response("result", marshal_result(result))
    if isinstance(error, CpuWorkerLostError):
        # Worker death is a transport-level failure, not an application
        # error: it propagates past the error-Response fold so the
        # client's retry loop sees a ConnectError (one attempt charged,
        # then retried against the respawned worker).
        raise error
    return Response("error", marshal_error(error))


class Skeleton:
    """Server-side dispatcher for one exported object."""

    def __init__(
        self,
        impl: Any,
        transport: Transport,
        endpoint_id: str,
        clock: Clock | None = None,
        object_id: str | None = None,
        uid: int = 0,
        obs: Any = None,
    ) -> None:
        self.impl = impl
        self.transport = transport
        self.endpoint_id = endpoint_id
        self.object_id = object_id or f"obj-{next(_object_ids)}"
        self.uid = uid
        self.clock = clock or WallClock()
        # Observability (repro.obs.Observability): None keeps dispatch
        # at one extra branch per call.
        self._obs = obs
        # Cpu-bound dispatch, resolved once: implementations without a
        # single @cpu_bound method leave this None (no pool is created,
        # dispatch pays one identity check), and transports that decline
        # to provide a pool — DirectTransport — keep cpu-bound methods
        # inline and deterministic.
        self._cpu = None
        if _declares_cpu_bound(type(impl)):
            cpu_factory = getattr(transport, "cpu_executor", None)
            if cpu_factory is not None:
                self._cpu = cpu_factory()
        self.stats = CallStats()
        self.draining = False
        self.pending = 0
        self._pending_lock = threading.Lock()
        # Set while draining with nothing pending.  Only start_drain and
        # the releases that follow it touch the event, always under
        # _pending_lock: the dispatch path pays for it only on a member
        # that is going away.
        self._drained = threading.Event()
        # Method name -> (target, dispatch kind), see _resolve.
        self._methods: dict[str, tuple[Any, int]] = {}
        # Redirect table installed by the sentinel: a callable deciding,
        # per call, whether to bounce it to another member.
        self.redirect_policy: Callable[[Request], RemoteRef | None] | None = None
        transport.endpoint(endpoint_id).export(self.object_id, self)

    def ref(self) -> RemoteRef:
        return RemoteRef(self.endpoint_id, self.object_id, self.uid)

    # -- lifecycle -----------------------------------------------------------

    def start_drain(self) -> None:
        """Stop accepting new calls; pending calls run to completion.
        This is step one of the paper's graceful removal protocol."""
        with self._pending_lock:
            self.draining = True
            if self.pending == 0:
                self._drained.set()
            else:
                self._drained.clear()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until all pending invocations finished (live mode)."""
        return self._drained.wait(timeout)

    @property
    def is_drained(self) -> bool:
        return self.draining and self._drained.is_set()

    def unexport(self) -> None:
        self.transport.endpoint(self.endpoint_id).unexport(self.object_id)

    # -- observability ------------------------------------------------------

    def _observe(self, method: str, latency: float, error: bool) -> None:
        """Record one completed dispatch into the observability layer.

        Only reached when an Observability is attached: the latency
        lands in the per-method server histogram.
        """
        self._obs.tracer.emit(
            "skeleton", "invoke",
            object=self.object_id, method=method,
            latency=round(latency, 9), error=error,
        )
        self._obs.registry.histogram(
            f"rmi.server.latency.{self.object_id}.{method}"
        ).observe(latency)
        if error:
            self._obs.registry.counter("rmi.server.errors").inc()

    # -- dispatch ---------------------------------------------------------------

    def _resolve(self, name: str) -> tuple[Any, int]:
        """What a call of ``name`` runs: ``(bound method, dispatch kind)``,
        or ``(NoSuchObjectError, _REFUSED)``.

        Decided from the method itself, once per name, and never by
        running it.  Three kinds of name are refused: names outside a
        declared elastic interface (paper section 3.1; the framework's
        stub-bootstrap call is always invocable), private names —
        ``__init__``, ``__setattr__``, ``_helpers``: remote callers must
        not reach them — and names the object has no callable for.
        Only names the object has are remembered, so callers sending
        made-up names cannot grow the table.
        """
        impl = self.impl
        method = getattr(impl, name, None)
        declared = getattr(type(impl), "__elastic_interface__", None)
        if (
            declared is not None
            and name not in declared
            and name != "ermi_member_identities"
        ):
            entry: tuple[Any, int] = (
                NoSuchObjectError(
                    f"{name!r} is not declared in the elastic "
                    f"interface of {type(impl).__name__}"
                ),
                _REFUSED,
            )
        elif name.startswith("_") or not callable(method):
            entry = (
                NoSuchObjectError(
                    f"{type(impl).__name__} has no remote method {name!r}"
                ),
                _REFUSED,
            )
        elif self._cpu is not None and getattr(
            method, "__ermi_cpu_bound__", False
        ):
            entry = (method, _CPU)
        elif getattr(method, "__ermi_blocking__", False):
            entry = (method, _BLOCKING)
        else:
            entry = (method, _PLAIN)
        if method is not None:
            self._methods[name] = entry
        return entry

    def _redirect(self, policy: Callable, request: Request) -> Response | None:
        """The reply the sentinel's redirect table ``policy`` gives
        ``request``, if it bounces it to another member."""
        target = policy(request)
        if target is not None and target != self.ref():
            return Response("redirect", b"", target)
        return None

    def handle(self, request: Request) -> Response:
        """One call, on this thread: a run of one (:meth:`handle_run`).

        What serves an unbatched call on the sync transports: a plain
        one in its caller's thread, and a ``@blocking`` method's call
        (:meth:`offloads`) on a worker of the member's dispatch pool, on
        both live transports (the asyncio transport's worker may also
        complete the call).  For a pooled call the drain and redirect
        gate, the pending count and the statistics clock all start when
        a worker picks it up, not when it was queued.
        """
        return self.handle_run((request,))[0]

    async def handle_async(self, request: Request) -> Response:
        """:meth:`handle` on the running loop, awaiting what the call
        waits on.  No transport calls it; it keeps its name for tracing
        harnesses that wrap the skeleton's entry points by name."""
        import asyncio
        reply = self.handle_run((request,), asyncio.get_running_loop())[0]
        return reply if type(reply) is Response else await reply

    def handle_run(
        self, requests: Sequence[Request],
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> list[Any]:
        """Serve a run of calls to this object in one pass: the one way
        into a skeleton.

        Redirects are decided per call, before admission; the drain gate
        and the pending count are paid once per run; the clock is read
        once per call boundary, and statistics are written to this
        thread's stripe once per stretch of calls to one method.  The
        slots go back after the last reply is built, so a drain one call
        starts waits for the rest, which still run.  Without ``loop`` a
        call runs to its end on this thread: a coroutine a method hands
        back is driven by a private loop, a ``@cpu_bound`` call waits for
        its worker process.  With ``loop`` (the asyncio transport) each
        call runs in a context copy of its own, and one that hands back
        a coroutine (an ``async def`` method's, or a ``@cpu_bound``
        call's, :meth:`_on_worker`) becomes a task on ``loop`` in that
        context, which holds the call's slot and stands in for its
        reply.
        """
        if self.draining:
            return [_DRAINED] * len(requests)
        admitted = requests
        bounced = None
        # Read once: the sentinel may replace or clear it mid-run.
        policy = self.redirect_policy
        if policy is not None:
            bounced = [self._redirect(policy, request) for request in requests]
            admitted = [
                request for request, reply in zip(requests, bounced)
                if reply is None
            ]
        held = len(admitted)
        with self._pending_lock:
            # Checked again under the lock start_drain takes: a call
            # that passed the unlocked check must not be counted after
            # the drain saw nothing pending and reported it drained.
            if self.draining:
                if bounced is None:
                    return [_DRAINED] * held
                return [reply or _DRAINED for reply in bounced]
            self.pending += held
        replies: list[Any] = []
        now = self.clock.now
        # The stretch of ``calls`` calls to method ``current`` not yet
        # written to the statistics, and their latency and errors.
        calls = 0
        try:
            started = now()
            for request in admitted:
                name = request.method
                method, kind = self._methods.get(name) or self._resolve(name)
                if kind == _REFUSED:
                    result, error = None, method
                else:
                    args, kwargs = unmarshal_call(request.payload)
                    error = None
                    try:
                        if loop is not None:
                            context = copy_context()
                            result = (
                                context.run(method, *args, **kwargs)
                                if kind != _CPU
                                else self._on_worker(name, args, kwargs)
                            )
                            if type(result) is CoroutineType:
                                task = loop.create_task(
                                    self._settle(name, started, result),
                                    context=context,
                                )
                                task.add_done_callback(self._settled)
                                replies.append(task)
                                held -= 1
                                started = now()
                                continue
                        elif kind == _CPU:
                            result = self._cpu.run_call(self.impl, name, args, kwargs)
                        else:
                            result = method(*args, **kwargs)
                            if type(result) is CoroutineType:
                                # This thread runs no loop: a private one
                                # drives the coroutine to its end.
                                import asyncio
                                result = asyncio.run(result)
                    except Exception as exc:
                        result, error = None, exc
                replies.append(
                    Response("result", marshal_result(result))
                    if error is None else _response(None, error)
                )
                ended = now()
                latency = 0.0 if kind == _REFUSED else ended - started
                failed = error is not None
                if calls and name == current:
                    calls += 1
                    spent += latency
                    errors += failed
                else:
                    if calls:
                        self.stats.record(current, spent, errors, calls)
                    current, calls, spent, errors = name, 1, latency, failed
                if self._obs is not None:
                    self._observe(name, latency, failed)
                started = ended
        finally:
            if calls:
                self.stats.record(current, spent, errors, calls)
            with self._pending_lock:
                self.pending -= held
                if self.draining and self.pending == 0:
                    self._drained.set()
        if bounced is not None:  # the served replies go between the bounced
            served = iter(replies)
            replies = [reply or next(served) for reply in bounced]
        return replies

    async def _on_worker(self, name: str, args: tuple, kwargs: dict) -> Any:
        """A ``@cpu_bound`` call on the loop: its worker process's
        outcome, awaited in the call's task."""
        import asyncio
        return await asyncio.wrap_future(
            self._cpu.submit_call(self.impl, name, args, kwargs)
        )

    async def _settle(self, name: str, started: float, coroutine: Any) -> Response:
        """The task of a call that handed back ``coroutine``: await it,
        count the call, reply."""
        try:
            result, error = await coroutine, None
        except Exception as exc:
            result, error = None, exc
        latency = self.clock.now() - started
        self.stats.record(name, latency, error is not None)
        if self._obs is not None:
            self._observe(name, latency, error is not None)
        return _response(result, error)

    def _settled(self, task: asyncio.Task) -> None:
        """A call's task is done, cancelled before it ever ran too: give
        back the slot it held.  (A method, not a closure: a closure over
        ``self`` would make every access to it in :meth:`handle_run` a
        cell load.)"""
        with self._pending_lock:
            self.pending -= 1
            if self.draining and self.pending == 0:
                self._drained.set()

    def offloads(self, name: str) -> bool:
        """Does method ``name`` block a thread (``@blocking``)?  Both
        live transports then run :meth:`handle` on the member's own
        pool of workers.  Read off :meth:`_resolve`'s table, never found
        out by running the method; safe from any thread (the transport
        asks from the caller's)."""
        entry = self._methods.get(name) or self._resolve(name)
        return entry[1] == _BLOCKING


MAX_REDIRECTS = 8

# A call machine is a generator that yields ``(endpoint_id, Request)``
# and is resumed with that send's Response, or has its delivery error
# thrown in; its return value (or exception) is the call's outcome.
CallMachine = Generator[tuple[str, Request], Response, Any]


def attempt(
    ref: RemoteRef,
    method: str,
    payload: Any,
    caller: str,
    redirect_error: type[Exception] = ApplicationError,
) -> CallMachine:
    """One attempt at ``ref``: send, interpret the reply, follow up to
    :data:`MAX_REDIRECTS` redirects.

    This is the only client-side reading of ``Response.kind``.  A
    ``drained`` reply raises :class:`MemberDrainedError` and the
    redirect bound raises ``redirect_error`` (the elastic stub asks for
    a :class:`ConnectError` so the call goes on at its next member).
    """
    redirects = 0
    while True:
        response = yield ref.endpoint_id, Request(
            ref.object_id, method, payload, caller
        )
        kind = response.kind
        if kind == "result":
            return unmarshal_result(response.payload)
        if kind == "error":
            cause = unmarshal_result(response.payload)
            raise ApplicationError(
                f"remote method {method!r} raised "
                f"{type(cause).__name__}: {cause}",
                cause=cause,
            )
        if kind == "drained":
            raise MemberDrainedError(
                f"member {ref.describe()} is draining; retry elsewhere"
            )
        if kind != "redirect":
            raise RemoteError(f"unknown response kind {kind!r}")
        redirects += 1
        if redirects > MAX_REDIRECTS:
            raise redirect_error(
                f"redirect loop invoking {method!r} "
                f"(> {MAX_REDIRECTS} redirects)"
            )
        ref = response.value


def run_call(
    call: CallMachine,
    send: Callable[..., Response],
    response: Response | None = None,
    error: BaseException | None = None,
) -> Any:
    """The blocking driver: step ``call`` to its end on this thread.

    A fresh machine is started; one a completion handed over is resumed
    with the ``response`` (or ``error``) of the send it was waiting on.
    """
    try:
        while True:
            step = call.send(response) if error is None else call.throw(error)
            try:
                response, error = send(*step), None
            except Exception as exc:
                response, error = None, exc
    except StopIteration as done:
        return done.value


def _settle(call, send, future, response, error):
    """Finish a handed-over machine on this thread and complete its
    future; ``response``/``error`` is the outcome of its pending send."""
    try:
        value = run_call(call, send, response, error)
    except BaseException as exc:  # noqa: BLE001 - relayed to waiter
        future.set_exception(exc)
    else:
        future.set_result(value)


def _settle_on_loop(call, send, future, response, error):
    """:func:`_settle` for completions that run on the event loop, which
    must never park: only a first-hop ``result`` is finished inline."""
    if error is None and response.kind == "result":
        _settle(call, send, future, response, None)
    else:
        async_executor().submit(_settle, call, send, future, response, error)


def start_call(call: CallMachine, transport: Transport, batcher: Any) -> RmiFuture:
    """``invoke_async`` for any call machine: choose who drives it.

    Without a batcher, a concurrent transport runs the blocking driver
    on the shared async pool and a deterministic one runs it eagerly in
    the caller's thread (an already-completed future is returned).

    With a batcher, or on an asynchronous transport, the **completion
    driver** takes over: the machine runs here up to its first send,
    which goes through ``batcher.submit`` (pipelined with the window's
    other calls) or straight to ``AsyncioTransport.submit``, so the
    caller never parks at submission.  Whoever completes that send — a
    batch sender, or the event loop — resumes the *same* machine: a
    first-hop ``result`` inline; anything else on the event loop is
    handed to the shared async pool, where the blocking driver finishes
    it, so recovery never parks the loop.  Batch senders are callers'
    threads and may block: they finish their entries' recoveries
    themselves, which keeps a deterministic transport single-threaded.
    """
    send = transport.invoke if batcher is None else batcher.dispatch
    on_loop = getattr(transport, "asynchronous", False)
    if batcher is None and not on_loop:
        if getattr(transport, "concurrent", False):
            return run_async(lambda: run_call(call, send))
        try:
            return RmiFuture.completed(run_call(call, send))
        except Exception as exc:
            return RmiFuture.failed(exc)
    settle = _settle_on_loop if on_loop else _settle
    try:
        endpoint_id, request = next(call)
    except Exception as exc:  # no member could even be chosen
        return RmiFuture.failed(exc)
    if batcher is not None:
        return batcher.submit(endpoint_id, request, partial(settle, call, send))
    future = RmiFuture()
    future.bind_wait_guard(transport.wait_guard)
    transport.submit(endpoint_id, request, partial(settle, call, send, future))
    return future


class Stub:
    """Client-side proxy bound to one remote reference.

    Attribute access returns invokers: ``stub.put(k, v)`` marshals
    ``(k, v)`` and drives one :func:`attempt` at the fixed reference —
    redirects are followed (bounded); ``drained`` responses raise
    :class:`MemberDrainedError`.
    """

    def __init__(
        self,
        transport: Transport,
        ref: RemoteRef,
        caller: str = "client",
        batcher: Any = None,
    ):
        self._transport = transport
        self._ref = ref
        self._caller = caller
        # Optional repro.rmi.batching.RequestBatcher: when attached and
        # enabled, sends route through it and may coalesce with
        # concurrent calls to the same endpoint.
        self._batcher = (
            batcher if batcher is not None and batcher.enabled else None
        )

    @property
    def ref(self) -> RemoteRef:
        return self._ref

    def __getattr__(self, method: str) -> Callable[..., Any]:
        if method.startswith("_"):
            raise AttributeError(method)

        def invoker(*args: Any, **kwargs: Any) -> Any:
            return self._invoke(method, args, kwargs)

        invoker.__name__ = method
        return invoker

    def invoke_async(self, method: str, *args: Any, **kwargs: Any) -> RmiFuture:
        """Start ``method(*args, **kwargs)`` and return its future.

        The synchronous proxy surface is ``invoke_async(...).result()``
        in semantics: the same :func:`attempt`, stepped by whichever
        driver :func:`start_call` picks for this transport and batcher.
        """
        return start_call(
            attempt(self._ref, method, marshal_call(args, kwargs), self._caller),
            self._transport,
            self._batcher,
        )

    def _invoke(self, method: str, args: tuple, kwargs: dict) -> Any:
        batcher = self._batcher
        return run_call(
            attempt(self._ref, method, marshal_call(args, kwargs), self._caller),
            self._transport.invoke if batcher is None else batcher.dispatch,
        )
