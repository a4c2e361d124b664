"""Asyncio-native transport: one event loop drives every endpoint.

:class:`ThreadedTransport` charges one blocked OS thread per in-flight
call, so its concurrency ceiling is thread count — a few hundred calls
at best.  :class:`AsyncioTransport` removes that ceiling: sends are loop
callbacks, dispatches are coroutines, and an in-flight call costs at
most one ``asyncio.Task`` (~KBs, no stack), so one process sustains tens
of thousands of concurrent calls.

What a task is paid for
    Only suspension on the loop.  A method that cannot suspend — a
    plain method: not ``async def``, not ``@blocking``, not
    ``@cpu_bound``; the skeleton says which, via ``Endpoint.export`` —
    runs to its reply where it was sent, inside the sweep or loop
    callback that sent the message, in a context copy of its own, with
    no task, no timer and no extra loop turn.  An unbatched call of one
    goes through the exported ``handle_async``, stepped once; each run
    of consecutive such entries of a batch for one skeleton goes
    through its ``handle_run`` in one pass, admitted, run and counted
    once per run.  A ``@blocking`` call or batch entry costs no task
    either: it is one job on its member's pool.  An unbatched ``async
    def`` or ``@cpu_bound`` call costs one task; a batch costs one per
    such entry, plus one for the batch once it waits on them or on its
    ``@blocking`` entries.  Whether a method suspends is never found
    out by running it: user code in an ``async def`` body must see its
    *own* task.  A message also goes through a task when a fault hook
    is installed or the in-flight window is full, and a plain one when
    it is sent from inside a task.  ``rmi.aio.loop_lag_ms`` shows the
    longer loop turns a wave of plain handlers costs.

Dispatch rules
    Skeletons dispatch *on the loop*: coroutine methods are awaited in
    place (``handle_async``) and plain methods run inline, batched or
    not (they must be CPU-light).  Methods marked with :func:`blocking`
    never touch the loop: the skeleton's synchronous ``handle`` — what
    a ``ThreadedTransport`` worker runs for an unbatched call — runs on
    the member's own pool (``Endpoint.pool``, 4 workers, made on its
    first ``@blocking`` call and closed with it), so a member brings its
    own capacity, and drain, redirect and the statistics clock see the
    call when a worker picks it up.  An unbatched one submitted off the
    loop goes onto the pool from the submitting thread and is completed
    by the worker: no loop callback runs for it (:class:`_Call`).

Bridging
    ``submit()``/``submit_batch()`` are the native, callback-based API.
    From another thread they hop to the loop, but for that unbatched
    ``@blocking`` call; on the loop thread — the batcher's sweeps — they
    start the dispatch at once.  ``invoke()``/``invoke_batch()`` bridge
    synchronously; called *from* the loop thread they raise instead of
    deadlocking, and :meth:`wait_guard` protects futures the same way.

The process owns one transport event loop, made lazily on a daemon
thread and shared by every :class:`AsyncioTransport`; ``shutdown()``
cancels one transport's dispatches and closes its members' pools but
leaves the loop running.  The in-flight window (``inflight_limit``)
bounds concurrent wire messages — backpressure, not a throttle: any
thread takes and gives its slots, and a message that finds it full
waits on the loop.  With an :class:`~repro.obs.Observability` attached
the transport exports in-flight gauges and a loop-lag histogram.
"""

from __future__ import annotations

import asyncio
import threading
import types
from collections import deque
from concurrent.futures import Future
from contextvars import Context, copy_context
from typing import Any, Callable

from repro.errors import ConnectError, RemoteError
from repro.rmi.transport import (
    BatchRequest,
    BatchResponse,
    Endpoint,
    Request,
    Response,
    _TransportBase,
    batch_envelope,
)

# Callback invoked when one submitted call (or batch) completes: exactly
# one of (result, error) is non-None.  It runs on the loop whenever
# ``submit`` was called there (the batcher's sweeps), and must then not
# block.  Only an unbatched ``@blocking`` call submitted from another
# thread completes off the loop: on its member's worker, as a rule.
DoneCallback = Callable[[Any, "BaseException | None"], None]

DEFAULT_INFLIGHT_WINDOW = 16_384
LAG_SAMPLE_INTERVAL_S = 0.05


def blocking(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a remote method as genuinely blocking (file/socket/sleep).

    The asyncio transport runs a call of a marked method (the
    skeleton's synchronous ``handle``) on its member's own pool of 4
    workers instead of on the loop — the *only* sanctioned way to block
    in a handler there.  Sync transports ignore the marker.
    """
    fn.__ermi_blocking__ = True
    return fn


class _LoopRuntime:
    """The shared event loop and its thread."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._run, name="ermi-aio-loop", daemon=True
        )
        self.thread.start()
        self._ident = self.thread.ident

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def is_loop_thread(self) -> bool:
        return threading.get_ident() == self._ident

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` on the loop; safe from any thread (from
        the loop thread, a plain ``call_soon``: no self-pipe write)."""
        if self.is_loop_thread():
            self.loop.call_soon(fn, *args)
        else:
            self.loop.call_soon_threadsafe(fn, *args)

    def run(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` on the loop thread: at once when on it."""
        if self.is_loop_thread():
            fn(*args)
        else:
            self.loop.call_soon_threadsafe(fn, *args)


_runtime: _LoopRuntime | None = None
_runtime_lock = threading.Lock()


def loop_runtime() -> _LoopRuntime:
    """The process-wide loop runtime, created on first use."""
    global _runtime
    if _runtime is None:
        with _runtime_lock:
            if _runtime is None:
                _runtime = _LoopRuntime()
    return _runtime


class AsyncioTransport(_TransportBase):
    """Live transport: every endpoint dispatches on one shared loop.

    ``timeout`` bounds each dispatch that suspends or runs on a pool;
    one that runs to its reply where it was sent has no timer to arm
    (None disables the deadline — deterministic tests use that to keep
    dispatch coroutines on the task path suspension-free).
    ``inflight_limit`` is the dispatch window.
    """

    concurrent = True
    # Capability flag the stub/batcher layers key on: completions are
    # loop-native callbacks, so callers must never block the loop thread.
    asynchronous = True

    def __init__(
        self, timeout: float | None = 30.0,
        inflight_limit: int = DEFAULT_INFLIGHT_WINDOW,
    ) -> None:
        super().__init__()
        self._timeout = timeout
        self._runtime = loop_runtime()
        self.inflight_limit = max(1, inflight_limit)
        # The window, under _lock from any thread: free slots (one per
        # wire message), calls in flight and their high-water mark.
        # Messages that found no slot wait on the loop, oldest first.
        self._lock = threading.Lock()
        self._free = self.inflight_limit
        self._inflight = 0
        self._inflight_hwm = 0
        self._waiters: deque[asyncio.Future] = deque()
        # Unsettled hand-offs (see _Call) in submission order, which is
        # deadline order: one timer, armed on the loop for the oldest.
        self._calls: dict[_Call, bool] = {}
        self._timer: asyncio.TimerHandle | None = None
        # Loop-thread-only state (no lock needed).
        self._tasks: set[asyncio.Task] = set()
        self._lag_task: asyncio.Task | None = None

    # -- capability surface -------------------------------------------------

    @property
    def inflight(self) -> int:
        """Calls currently inside the dispatch window (monitoring)."""
        return self._inflight

    @property
    def inflight_hwm(self) -> int:
        """High-water mark of concurrent in-flight calls."""
        return self._inflight_hwm

    def schedule(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the event loop, from any thread (the batcher's
        sweeps)."""
        self._runtime.call_soon(fn)

    def wait_guard(self) -> None:
        """Raise when the calling thread must not block on a future.

        Stubs bind this on loop-native futures: a ``result()`` from the
        loop thread itself can only deadlock (the completion it waits
        for would run on the very thread it parked), so it fails fast.
        """
        if self._runtime.is_loop_thread():
            raise RemoteError(
                "blocking wait on the asyncio transport's event-loop "
                "thread would deadlock; complete via callbacks or wait "
                "from another thread"
            )

    # -- observability ------------------------------------------------------

    def set_obs(self, obs: Any) -> None:
        super().set_obs(obs)
        if obs is not None:
            self._runtime.call_soon(self._ensure_lag_sampler)

    def _ensure_lag_sampler(self) -> None:  # loop thread
        if self._lag_task is not None and not self._lag_task.done():
            return
        self._lag_task = self._runtime.loop.create_task(
            self._sample_loop_lag()
        )

    async def _sample_loop_lag(self) -> None:
        """Periodic loop-lag probe, while an Observability is attached:
        the overshoot of a plain ``sleep`` is the time runnable callbacks
        waited behind whatever held the loop."""
        loop = asyncio.get_running_loop()
        while self._obs is not None and not self._closed:
            before = loop.time()
            await asyncio.sleep(LAG_SAMPLE_INTERVAL_S)
            lag_ms = max(
                0.0, (loop.time() - before - LAG_SAMPLE_INTERVAL_S) * 1e3
            )
            obs = self._obs
            if obs is None:
                break
            obs.registry.histogram("rmi.aio.loop_lag_ms").observe(lag_ms)

    def _export_inflight(self) -> None:
        registry = self._obs.registry
        registry.gauge("rmi.aio.inflight").set(float(self._inflight))
        registry.gauge("rmi.aio.inflight_hwm").set(float(self._inflight_hwm))

    # -- the window ---------------------------------------------------------

    def _take(self, size: int, waiter: asyncio.Future | None = None) -> bool:
        """Take a slot for a message of ``size`` calls (any thread).

        False when none is free, or when messages wait for one and this
        is not one of them; a ``waiter`` (a loop future) then joins them.
        """
        with self._lock:
            if self._free <= 0 or (self._waiters and waiter is None):
                if waiter is not None:
                    self._waiters.append(waiter)
                return False
            self._free -= 1
            self._inflight += size
            if self._inflight > self._inflight_hwm:
                self._inflight_hwm = self._inflight
            if self._obs is not None:
                self._export_inflight()
        return True

    def _give(self, size: int) -> None:
        """Give back a message's slot (any thread); wake a waiter."""
        with self._lock:
            self._free += 1
            self._inflight -= size
            wake = bool(self._waiters)
            if self._obs is not None:
                self._export_inflight()
        if wake:
            self._runtime.run(self._wake)

    def _wake(self) -> None:  # loop thread
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():  # one cancelled while it waited is passed
                waiter.set_result(None)
                return

    async def _enter(self, size: int) -> None:
        """Take a slot, waiting while the window is full (in a task)."""
        while not self._take(size):
            waiter = self._runtime.loop.create_future()
            if self._take(size, waiter):
                return
            try:
                await waiter
            except asyncio.CancelledError:
                if not waiter.cancelled():
                    self._wake()  # woken, then cancelled: pass it on
                raise

    # -- native (loop-callback) API -----------------------------------------

    def submit(
        self, endpoint_id: str, request: Request, on_done: DoneCallback
    ) -> None:
        """Start one call; ``on_done(response, error)`` runs on the loop
        whenever this is called on the loop thread.

        Thread-safe and non-blocking: the caller never parks.  On the
        loop thread (the batcher's sweeps) the dispatch starts at once: a
        call that cannot suspend has run, ``on_done`` included, by the
        time this returns (see :meth:`_start`).  From another thread, an
        unbatched ``@blocking`` call with no fault hook and room in the
        window goes straight onto its member's pool and completes on
        whichever thread settles it first — the member's worker, as a
        rule (see :class:`_Call`); any other call hops to the loop.
        """
        runtime = self._runtime
        if runtime.is_loop_thread():
            self._start(endpoint_id, request, on_done)
            return
        ep = self._endpoints.get(endpoint_id)
        if (
            ep is not None and ep.alive and not self._closed
            and self._fault_hook is None and _offloads(ep, request)
            and self._take(1)
        ):
            self._hand_off(ep, request, on_done, None)
        else:
            runtime.loop.call_soon_threadsafe(
                self._start, endpoint_id, request, on_done
            )

    def submit_batch(
        self, endpoint_id: str, batch: BatchRequest, on_done: DoneCallback
    ) -> None:
        """Batch analogue of :meth:`submit`; completes with a
        :class:`BatchResponse`, on the loop."""
        self._runtime.run(self._start, endpoint_id, batch, on_done)

    def _start(
        self, endpoint_id: str, message: Request | BatchRequest,
        on_done: DoneCallback,
    ) -> None:  # loop thread
        """Send one wire message: eagerly when nothing in it can suspend
        before its reply, as one job on its member's pool when it is a
        ``@blocking`` call (``Endpoint.offloads``), in a task otherwise.

        Both task-free paths need no fault hook and a free slot of the
        window.  Eager also needs no current task (user code never runs
        in a task not its own) and a batch, or a call whose skeleton says
        its method cannot suspend (``Endpoint.may_suspend``; a raw
        exported callable makes no such promise).  A message that fails
        to resolve is answered here.
        """
        try:
            ep, handler = self._resolve_message(endpoint_id, message)
        except ConnectError as exc:
            self._complete(on_done, None, exc)
            return
        if self._fault_hook is None:
            if handler is None or not ep.may_suspend.get(
                message.object_id, _suspends
            )(message.method):
                size = 1 if handler is not None else len(message.entries)
                if (
                    asyncio.current_task(self._runtime.loop) is None
                    and self._take(size)
                ):
                    context = copy_context()
                    context.run(
                        self._eager, ep, handler, message, size, on_done,
                        context,
                    )
                    return
            elif _offloads(ep, message) and self._take(1):
                self._hand_off(ep, message, on_done, self._runtime.loop)
                return
        self._spawn(self._run(
            self._invoke_async(endpoint_id, ep, handler, message), on_done
        ))

    def _eager(
        self, ep: Endpoint, handler: Any, message: Request | BatchRequest,
        size: int, on_done: DoneCallback, context: Context,
    ) -> None:  # loop thread, run in ``context``
        """Step one message to its reply inside the caller's callback.

        It holds the slot :meth:`_start` took and counts as in flight
        while it runs, as a task would.  Should it suspend after all — a
        batch whose entries were given tasks, a plain method that handed
        back an awaitable — the rest of it becomes the message's one
        task, in the same context and under the deadline its dispatch
        started here.
        """
        self._messages.increment()
        if self._tracer is not None:
            self._trace_message(ep, message)
        started = self._runtime.loop.time()
        try:
            if handler is None:
                reply = _step(self._dispatch, ep, None, message)
            else:
                reply = _step(handler, message)
        except BaseException as exc:  # noqa: BLE001 - relayed to completer
            reply, error = None, exc
        else:
            if type(reply) is types.CoroutineType:  # _step's rest of it
                self._spawn(
                    self._run(
                        self._resume(reply, message, size, started), on_done
                    ),
                    context,
                )
                return
            error = None
        self._give(size)
        self._complete(on_done, reply, error)

    async def _resume(
        self, rest: Any, message: Request | BatchRequest, size: int, started: float
    ) -> Any:
        """The task of an eagerly stepped message that suspended."""
        try:
            return await self._timed(rest, message, started)
        finally:
            self._give(size)

    def _hand_off(
        self, ep: Endpoint, request: Request, on_done: DoneCallback,
        loop: asyncio.AbstractEventLoop | None,
    ) -> None:  # any thread; the call's slot is taken
        """Send an unbatched ``@blocking`` call with no task: one job on
        its member's pool (:class:`_Call`; ``loop`` is set when it was
        submitted there).  It pays what :meth:`_eager` pays and joins the
        deadline FIFO, waking the loop only when no timer is armed."""
        self._messages.increment()
        if self._tracer is not None:
            self._trace_message(ep, request)
        timeout = self._timeout
        call = _Call(
            self, _sync_handler(ep, request), request, on_done, loop,
            0.0 if timeout is None else self._runtime.loop.time() + timeout,
        )
        self._calls[call] = True
        if timeout is not None and self._timer is None:
            self._runtime.run(self._arm, False)
        try:
            (ep.pool or self._pool(ep)).submit(call)
        except (ConnectError, RuntimeError) as exc:
            call.settle(None, exc)  # killed since; or no thread, at exit

    def _arm(self, fired: bool) -> None:  # loop thread
        """Expire the hand-offs past their deadline, oldest first, and
        arm the one timer (unless armed) for the oldest still unsettled."""
        if fired:
            self._timer = None
        elif self._timer is not None:
            return
        loop = self._runtime.loop
        now = loop.time()
        while (call := self._oldest()) is not None:
            if call.deadline > now:
                self._timer = loop.call_at(call.deadline, self._arm, True)
                return
            call.settle(None, self._timeout_error(call.arg))

    def _oldest(self) -> _Call | None:
        while True:
            try:
                return next(iter(self._calls), None)
            except RuntimeError:  # resized by another thread mid-peek
                continue

    def _pool_reply(self, ep: Endpoint, request: Request) -> Any:
        """The reply of ``request`` run on its member's pool, as a loop
        future (:class:`_Awaited`): what a batch entry, or a call on the
        task path, awaits."""
        future = self._runtime.loop.create_future()
        try:
            (ep.pool or self._pool(ep)).submit(
                _Awaited(_sync_handler(ep, request), request, future)
            )
        except (ConnectError, RuntimeError) as exc:
            future.set_exception(exc)
        return future

    def _spawn(self, coro: Any, context: Context | None = None) -> None:
        # Tasks need a strong reference until done; _reap also surfaces
        # completion-callback bugs via the loop's exception handler
        # instead of a silent "exception never retrieved".
        task = self._runtime.loop.create_task(coro, context=context)
        self._tasks.add(task)
        task.add_done_callback(self._reap)

    def _reap(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self._report(exc)

    def _complete(
        self, on_done: DoneCallback, reply: Any, error: BaseException | None
    ) -> None:
        """Run a completion outside any task: a callback that raises is
        reported as :meth:`_reap` reports one that raised in a task."""
        try:
            on_done(reply, error)
        except Exception as exc:  # noqa: BLE001 - a completer's bug
            self._report(exc)

    def _report(self, exc: BaseException) -> None:
        self._runtime.loop.call_exception_handler(
            {"message": "ermi aio completion callback failed",
             "exception": exc}
        )

    async def _run(self, work: Any, on_done: DoneCallback) -> None:
        try:
            reply = await work
        except asyncio.CancelledError:
            on_done(None, ConnectError("asyncio transport shut down"))
        except BaseException as exc:  # noqa: BLE001 - relayed to completer
            on_done(None, exc)
        else:
            on_done(reply, None)

    # -- dispatch coroutines ------------------------------------------------

    def _resolve_message(
        self, endpoint_id: str, message: Request | BatchRequest
    ) -> tuple[Endpoint, Any]:
        """The endpoint and, for a call, its *async* handler when
        exported, the raw sync one otherwise (tests export plain
        callables); None for a batch, whose entries resolve at dispatch."""
        if self._closed:
            raise ConnectError("asyncio transport shut down")
        ep = self._resolve_endpoint(endpoint_id)
        if type(message) is BatchRequest:
            return ep, None
        object_id = message.object_id
        handler = ep.ahandlers.get(object_id) or ep.handlers.get(object_id)
        if handler is None:
            raise ConnectError(f"no object {object_id!r} at endpoint {ep.name}")
        return ep, handler

    async def _invoke_async(
        self, endpoint_id: str, ep: Endpoint, handler: Any,
        message: Request | BatchRequest,
    ) -> Any:
        """Deliver one resolved wire message, a call or a batch: one
        slot of the dispatch window, one fault-hook consultation, one
        message counted and one trace event, however many calls it
        carries."""
        size = 1 if handler is not None else len(message.entries)
        await self._enter(size)
        try:
            hook = self._fault_hook
            if hook is not None:
                # Hooks may sleep (injected delays); keep the loop live
                # by consulting them on the loop's default executor.
                await self._runtime.loop.run_in_executor(
                    None, hook, endpoint_id,
                    message if handler is not None else batch_envelope(message),
                )
            self._messages.increment()
            if self._tracer is not None:
                self._trace_message(ep, message)
            return await self._timed(
                self._dispatch(ep, handler, message), message,
                self._runtime.loop.time(),
            )
        finally:
            self._give(size)

    async def _timed(
        self, coro: Any, message: Request | BatchRequest, started: float
    ) -> Any:
        """Await ``coro`` under the deadline of a dispatch ``started``
        then (loop time)."""
        if self._timeout is None:
            return await coro
        try:
            async with asyncio.timeout_at(started + self._timeout):
                return await coro
        except TimeoutError as exc:
            raise self._timeout_error(message) from exc

    def _timeout_error(self, message: Request | BatchRequest) -> RemoteError:
        what = (
            f"batch of {len(message.entries)} invocations"
            if type(message) is BatchRequest
            else f"invocation of {message.method!r}"
        )
        return RemoteError(f"{what} timed out after {self._timeout}s")

    async def _dispatch(
        self, ep: Endpoint, handler: Any, message: Request | BatchRequest
    ) -> Any:
        """Run a call's handler, or unbatch a batch (``handler`` None) on
        the loop, its replies reassembled in entry order.

        Each run of consecutive entries for one skeleton whose methods
        cannot suspend (``Endpoint.may_suspend``) is served right here,
        with no task, by its run handler (``Skeleton.handle_run``).  A
        raw exported callable is called here, in a context copy of its
        own.  A ``@blocking`` entry is one job on its member's pool
        completing a loop future (so is a ``@blocking`` call on the task
        path); any other entry gets a task of its own.  Both start once
        the entries served here are done, so they still overlap.
        """
        if handler is not None:
            if _offloads(ep, message):
                return await self._pool_reply(ep, message)
            reply = handler(message)
            return (await reply) if asyncio.iscoroutine(reply) else reply
        entries = message.entries
        responses: list[Any] = [None] * len(entries)
        tasked: list[tuple[int, Any, Any]] = []  # (index, coroutine, context)
        offloaded: list[tuple[int, Request]] = []
        awaited: list[tuple[int, Any]] = []  # (index, its reply's awaitable)
        run: list[Request] = []  # consecutive plain entries of one skeleton
        loop = self._runtime.loop
        runs, ahandlers, predicates = ep.runs, ep.ahandlers, ep.may_suspend
        try:
            for index, request in enumerate((*entries, None)):
                object_id = None if request is None else request.object_id
                joins = object_id in runs and not predicates.get(
                    object_id, _suspends
                )(request.method)
                if run and not (joins and object_id == run[0].object_id):
                    first = index - len(run)
                    replies = runs[run[0].object_id](run, loop)
                    for at, reply in enumerate(replies, first):
                        if type(reply) is Response:
                            responses[at] = reply
                        else:  # the task of a plain method's coroutine
                            awaited.append((at, reply))
                    run = []
                if joins:
                    run.append(request)
                    continue
                if request is None:
                    break
                handler = ahandlers.get(object_id)
                if handler is not None:
                    if _offloads(ep, request):
                        offloaded.append((index, request))
                    else:
                        tasked.append((index, handler(request), None))
                    continue
                handler = ep.handlers.get(object_id)
                if handler is None:
                    responses[index] = Response(kind="unresolved", value=object_id)
                    continue
                # A raw exported callable: calling it cannot suspend
                # anything, but what it returns may be a coroutine.
                context = copy_context()
                reply = context.run(handler, request)
                if type(reply) is not Response and asyncio.iscoroutine(reply):
                    tasked.append((index, reply, context))
                else:
                    responses[index] = reply
        except BaseException:
            # The batch fails as a whole; an entry collected for a task
            # is closed unrun (never "never awaited"), and a task a run
            # made settles its own call.
            for _, coro, _ in tasked:
                coro.close()
            raise
        if tasked or offloaded or awaited:
            awaited.extend(
                (index, self._pool_reply(ep, request))
                for index, request in offloaded
            )
            awaited.extend(
                (index, loop.create_task(coro, context=context))
                for index, coro, context in tasked
            )
            replies = await asyncio.gather(*(reply for _, reply in awaited))
            for (index, _), reply in zip(awaited, replies):
                responses[index] = reply
        return BatchResponse(entries=tuple(responses))

    # -- sync bridges (Transport protocol) ----------------------------------

    def invoke(self, endpoint_id: str, request: Request) -> Response:
        return self._wait_for(self.submit, endpoint_id, request, request.method)

    def invoke_batch(self, endpoint_id: str, batch: BatchRequest) -> BatchResponse:
        return self._wait_for(
            self.submit_batch, endpoint_id, batch, f"batch[{len(batch.entries)}]"
        )

    def _wait_for(
        self, submit: Callable[..., None], endpoint_id: str, message: Any, what: str
    ) -> Any:
        self.wait_guard()
        waiter: Future = Future()
        submit(endpoint_id, message, _bridge(waiter))
        # The dispatch deadline lives on the loop; the grace period only
        # covers a loop that died and can never complete the waiter.
        grace = None if self._timeout is None else self._timeout + 5.0
        try:
            return waiter.result(timeout=grace)
        except TimeoutError as exc:
            raise RemoteError(
                f"invocation of {what} got no completion within {grace}s"
            ) from exc

    # -- lifecycle ----------------------------------------------------------

    def cpu_executor(self):
        return self._ensure_cpu_executor()

    def shutdown(self) -> None:
        """Cancel this transport's outstanding dispatches, then close its
        members' pools (on the loop).

        Tasks are cancelled; an unbatched ``@blocking`` call still on its
        member's pool completes with the same ``ConnectError`` a
        cancelled task gives, and its reply is dropped when it comes.
        The shared loop keeps running — process infrastructure, reused by
        the next transport.  The transport-owned cpu pool stops here, so
        a finished session never strands worker processes.
        """
        self._closed = True
        self._runtime.call_soon(self._cancel_all)
        self._shutdown_cpu_executor()

    def _cancel_all(self) -> None:  # loop thread
        if self._lag_task is not None:
            self._lag_task.cancel()
            self._lag_task = None
        if self._timer is not None:
            self._timer.cancel()
        # One turn later: by then every task made so far (a sweep that
        # raced shutdown may just have made one) has taken its first
        # step, so its _run turns the cancellation into a ConnectError.
        loop = self._runtime.loop
        for task in list(self._tasks):
            loop.call_soon(task.cancel)
        for call in list(self._calls):
            call.settle(None, ConnectError("asyncio transport shut down"))
        self._close_pools()


class _Call:
    """An unbatched ``@blocking`` call handed off as one job on its
    member's pool (:meth:`AsyncioTransport._hand_off`).

    Whichever comes first settles it — the worker's reply, its member's
    kill (the pool fails it with the retryable "is down"
    ``ConnectError``), its deadline, or ``shutdown()`` — and whatever
    comes later is dropped.  The claim is one atomic ``dict.pop`` from
    the transport's FIFO of unsettled calls, so the window slot is given
    back and ``on_done`` runs once, on the thread that settled it.  A
    call settled while still queued never runs.  One submitted on the
    loop thread (``loop`` set) is settled there: a reply or kill hops.
    """

    __slots__ = (
        "transport", "handler", "arg", "on_done", "loop", "deadline",
        "result", "error",
    )

    def __init__(
        self, transport: AsyncioTransport, handler: Any, request: Request,
        on_done: DoneCallback, loop: asyncio.AbstractEventLoop | None, deadline: float,
    ) -> None:
        self.transport, self.handler, self.arg = transport, handler, request
        self.on_done, self.loop, self.deadline = on_done, loop, deadline
        self.result = self.error = None

    def fn(self, request: Request) -> Any:  # a worker, at dequeue
        if self not in self.transport._calls:
            return None  # settled while it queued: never run
        return self.handler(request)

    def finish(self) -> None:  # the worker that ran it, or a kill
        if self.loop is None:
            self.settle(self.result, self.error)
        else:
            self.loop.call_soon_threadsafe(self.settle, self.result, self.error)

    def settle(self, reply: Any, error: BaseException | None) -> None:
        transport = self.transport
        if transport._calls.pop(self, None) is None:
            return  # settled already: a late reply, deadline or kill
        transport._give(1)
        transport._complete(self.on_done, reply, error)


class _Awaited:
    """A ``@blocking`` call a task awaits (a batch entry, or a call on
    the task path): one job on its member's pool whose outcome completes
    ``future`` on the loop.  A job whose future was cancelled while it
    queued (the task's deadline, ``shutdown()``) never runs."""

    __slots__ = ("handler", "arg", "future", "result", "error")

    def __init__(self, handler: Any, request: Request, future: Any) -> None:
        self.handler, self.arg, self.future = handler, request, future
        self.result = self.error = None

    def fn(self, request: Request) -> Any:  # a worker, at dequeue
        return None if self.future.cancelled() else self.handler(request)

    def finish(self) -> None:  # the worker that ran it, or a kill
        self.future.get_loop().call_soon_threadsafe(self.resolve)

    def resolve(self) -> None:  # loop thread
        if self.future.cancelled():
            return  # its task gave up on it
        if self.error is not None:
            self.future.set_exception(self.error)
        else:
            self.future.set_result(self.result)


def _sync_handler(ep: Endpoint, request: Request) -> Any:
    """The handler a pool job runs: ``Skeleton.handle``."""
    return ep.handlers.get(request.object_id, _unexported)


def _offloads(ep: Endpoint, request: Request) -> bool:
    """Does the skeleton say ``request``'s method blocks a thread?"""
    predicate = ep.offloads.get(request.object_id)
    return predicate is not None and predicate(request.method)


def _unexported(request: Request) -> Response:
    """The sync handler of an object unexported since it resolved."""
    raise ConnectError(f"no object {request.object_id!r} exported")


def _step(dispatch: Any, *args: Any) -> Any:
    """Run a dispatch coroutine that should not suspend to its reply.

    Called in the context the dispatch is to run in.  Should it suspend
    after all (``handle_async`` does when a plain method hands back an
    awaitable, already put in a task of its own; a batch does once its
    suspending entries have theirs), the rest of it is returned as a
    coroutine for the caller to give a task, in this same context.
    """
    coro = dispatch(*args)
    try:
        yielded = coro.send(None)
    except StopIteration as done:
        return done.value
    return _finish(coro, yielded)


def _suspends(method: str) -> bool:
    """The predicate of a handler exported without one: it may."""
    return True


async def _finish(coro: Any, yielded: Any) -> Any:
    # A native coroutine around _rest: what create_task accepts on
    # every supported interpreter.
    return await _rest(coro, yielded)


@types.coroutine
def _rest(coro: Any, yielded: Any):
    """Delegate to ``coro`` from its second step on: what ``await coro``
    does, for a coroutine whose first step already ran and yielded
    ``yielded`` (the future it waits on, passed up to the task)."""
    try:
        while True:
            try:
                sent = yield yielded
            except BaseException as exc:  # noqa: BLE001 - thrown into coro
                yielded = coro.throw(exc)
            else:
                yielded = coro.send(sent)
    except StopIteration as done:
        return done.value


def _bridge(waiter: Future) -> DoneCallback:
    """Adapt a completion callback onto a concurrent future."""

    def on_done(result: Any, error: BaseException | None) -> None:
        if error is not None:
            waiter.set_exception(error)
        else:
            waiter.set_result(result)

    return on_done
