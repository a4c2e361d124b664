"""Asyncio-native transport: one event loop drives every endpoint.

:class:`ThreadedTransport` charges one blocked OS thread per in-flight
call (an async-invoker worker parked on ``future.result()`` plus a
dispatch-pool worker running the handler), so its concurrency ceiling is
thread count — a few hundred calls at best.  :class:`AsyncioTransport`
removes that ceiling: sends are loop callbacks, dispatches are
coroutines, and an in-flight call costs at most one ``asyncio.Task``
(~KBs, no stack, no scheduler pressure), so one process sustains tens
of thousands of concurrent calls.

What a task is paid for
    Only suspension on the loop.  A method that cannot suspend — a
    plain method: not ``async def``, not ``@blocking``, not
    ``@cpu_bound``; the skeleton says which, from the method, via
    ``Endpoint.export`` — is stepped to its reply where it was sent,
    still through the exported ``handle_async`` and in a context copy
    of its own: an unbatched call of one, and every such entry of a
    batch, run inside the sweep or loop callback that sent the message,
    with no task, no timer and no extra loop turn.  A ``@blocking``
    method costs no task either: the call, or the batch entry, is one
    job on the offload executor and one hand-off back to the loop (see
    Dispatch rules); an unbatched one has one loop timer for its
    deadline.  An unbatched ``async def`` or ``@cpu_bound`` call costs
    one task; a batch costs one per such entry, plus one for the batch
    once it waits on them or on its offloaded entries.  Whether a
    method suspends is never found out by running it: user code in an
    ``async def`` body must see its *own* task (``asyncio.timeout()``,
    ``current_task()``), so it keeps one and such entries still
    overlap.  A message is also sent through a task when a fault hook
    is installed or the in-flight window is full, and a plain one when
    it is sent from inside a task.  The price is a longer single loop
    turn for a wave of plain handlers; ``rmi.aio.loop_lag_ms`` shows it.

Loop ownership
    The process owns exactly one transport event loop, created lazily on
    a daemon thread (mirroring :func:`repro.rmi.future.async_executor`)
    and shared by every :class:`AsyncioTransport` instance.  Transport
    ``shutdown()`` cancels that transport's outstanding dispatches (an
    offloaded call is completed with the cancelled task's
    ``ConnectError``, and its late reply dropped) but leaves the loop
    running — it is process infrastructure, like the
    async-invoker pool.

Dispatch rules
    Each endpoint's skeleton dispatches *on the loop* via its
    ``handle_async`` coroutine: coroutine remote methods are awaited in
    place and plain methods run inline (they must be CPU-light).
    Methods marked with the :func:`blocking` decorator never touch the
    loop: the transport runs the skeleton's synchronous ``handle`` —
    accept, method, reply, exactly what a ``ThreadedTransport`` worker
    runs — on the small offload executor, and the worker hands the
    ``Response`` back with one ``call_soon_threadsafe``.  So drain,
    redirect and the skeleton's statistics clock see such a call when a
    worker picks it up, not when it was queued.

Bridging
    ``submit()``/``submit_batch()`` are the native, callback-based API
    (the stub's loop-native path and the batcher's sweeps use them).
    From another thread they hop to the loop (``call_soon_threadsafe``);
    called on the loop thread — the batcher's sweeps are — they start
    the dispatch at once (a message that cannot suspend has completed
    when they return), and
    ``schedule()`` there is a plain ``call_soon``: no write to the
    loop's self-pipe for a hop to the thread one is already on.
    ``invoke()``/``invoke_batch()`` bridge synchronously for
    Transport-protocol compatibility; calling them *from* the loop
    thread raises immediately instead of deadlocking, and
    :meth:`wait_guard` gives futures the same protection.

The in-flight window (``ERMI_AIO_INFLIGHT``, generous by default) is an
``asyncio.Semaphore`` bounding concurrent dispatches — backpressure
against unbounded task pileup, not a throttle.  With an
:class:`~repro.obs.Observability` attached the transport exports an
in-flight gauge (plus high-water mark) and an event-loop lag histogram
sampled by a periodic loop task.
"""

from __future__ import annotations

import asyncio
import threading
import types
from concurrent.futures import Future, ThreadPoolExecutor
from contextvars import Context, copy_context
from typing import Any, Callable

from repro.errors import ConnectError, RemoteError
from repro.rmi.envcfg import env_int
from repro.rmi.transport import (
    BatchRequest,
    BatchResponse,
    Endpoint,
    Request,
    Response,
    _TransportBase,
    batch_envelope,
)

# Callback invoked on the loop when one submitted call (or batch)
# completes: exactly one of (result, error) is non-None.  It must not
# block — anything that would park the loop thread belongs on a pool.
DoneCallback = Callable[[Any, "BaseException | None"], None]

DEFAULT_INFLIGHT_WINDOW = 16_384
DEFAULT_OFFLOAD_WORKERS = 8
LAG_SAMPLE_INTERVAL_S = 0.05


def aio_inflight_from_env() -> int:
    """Dispatch-window size from ``ERMI_AIO_INFLIGHT`` (default 16384)."""
    return env_int("ERMI_AIO_INFLIGHT", DEFAULT_INFLIGHT_WINDOW)


def blocking_workers_from_env() -> int:
    """Offload-pool size from ``ERMI_BLOCKING_WORKERS`` (default 8).

    Sizes the shared offload executor that ``@blocking`` calls run
    on.  Read once, when the process-wide loop runtime is created —
    raising here (malformed value) is deliberate and names the variable.
    """
    return env_int("ERMI_BLOCKING_WORKERS", DEFAULT_OFFLOAD_WORKERS)


def blocking(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a remote method as genuinely blocking (file/socket/sleep).

    The asyncio transport runs a call of a marked method on its small
    offload executor (the skeleton's synchronous ``handle``) instead of
    on the loop — the *only* sanctioned way to block in a handler on
    that transport.  Sync transports ignore the marker (their dispatch
    threads may block).
    """
    fn.__ermi_blocking__ = True
    return fn


# ----------------------------------------------------------------------
# the process-wide loop runtime
# ----------------------------------------------------------------------


class _LoopRuntime:
    """The shared event loop, its thread, and the offload executor."""

    def __init__(self, offload_workers: int) -> None:
        self.loop = asyncio.new_event_loop()
        self.offload = ThreadPoolExecutor(
            max_workers=offload_workers,
            thread_name_prefix="ermi-aio-offload",
        )
        # ``@blocking`` calls are jobs submitted here; fault hooks run
        # here too, as the loop's *default* executor
        # (``run_in_executor(None, ...)``).
        self.loop.set_default_executor(self.offload)
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
        """Schedule ``fn(*args)`` on the loop; safe from any thread.

        From the loop thread itself this is a plain ``call_soon`` — still
        a later turn of the loop, but no write to its self-pipe."""
        if self.is_loop_thread():
            self.loop.call_soon(fn, *args)
        else:
            self.loop.call_soon_threadsafe(fn, *args)

    def run(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` on the loop thread: right now when called
        there, else as :meth:`call_soon` would."""
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
                _runtime = _LoopRuntime(blocking_workers_from_env())
    return _runtime


# ----------------------------------------------------------------------
# the transport
# ----------------------------------------------------------------------


class AsyncioTransport(_TransportBase):
    """Live transport: every endpoint dispatches on one shared loop.

    ``timeout`` bounds each dispatch that suspends or is offloaded; one
    that runs to its reply where it was sent has no timer to arm (None
    disables the deadline — deterministic tests use that to keep
    dispatch coroutines on the task path suspension-free).
    ``inflight_limit`` is the dispatch window.
    """

    concurrent = True
    # Capability flag the stub/batcher layers key on: completions are
    # loop-native callbacks, so callers must never block the loop thread.
    asynchronous = True

    def __init__(
        self,
        timeout: float | None = 30.0,
        inflight_limit: int | None = None,
    ) -> None:
        super().__init__()
        self._timeout = timeout
        self._runtime = loop_runtime()
        self.inflight_limit = (
            aio_inflight_from_env() if inflight_limit is None
            else max(1, inflight_limit)
        )
        self._sema = asyncio.Semaphore(self.inflight_limit)
        # Loop-thread-only state (no lock needed): admitted dispatches.
        self._inflight = 0
        self._inflight_hwm = 0
        self._tasks: set[asyncio.Task] = set()
        self._offloaded: set[_Offloaded] = set()
        self._lag_task: asyncio.Task | None = None
        self._closed = False

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
        """Run ``fn`` on the event loop; safe from any thread.

        The batcher schedules its sweeps here.
        """
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
        """Periodic loop-lag probe: how late a timer actually fires.

        The overshoot of a plain ``sleep`` is scheduling latency — the
        time runnable callbacks waited behind whatever held the loop.
        Only runs while an Observability is attached.
        """
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

    def _note_inflight(self, delta: int) -> None:  # loop thread
        self._inflight += delta
        if self._inflight > self._inflight_hwm:
            self._inflight_hwm = self._inflight
        obs = self._obs
        if obs is not None:
            registry = obs.registry
            registry.gauge("rmi.aio.inflight").set(float(self._inflight))
            registry.gauge("rmi.aio.inflight_hwm").set(
                float(self._inflight_hwm)
            )

    # -- native (loop-callback) API -----------------------------------------

    def submit(
        self, endpoint_id: str, request: Request, on_done: DoneCallback
    ) -> None:
        """Start one call; ``on_done(response, error)`` runs on the loop.

        Thread-safe and non-blocking: the caller never parks, which is
        what lets one thread keep thousands of calls in flight.  Called
        on the loop thread (the batcher's sweeps are) the dispatch starts
        at once instead of hopping to the loop it is on: a call that
        cannot suspend has run, ``on_done`` included, by the time this
        returns (see :meth:`_start`); any other has its task.
        """
        self._runtime.run(self._start, endpoint_id, request, on_done)

    def submit_batch(
        self, endpoint_id: str, batch: BatchRequest, on_done: DoneCallback
    ) -> None:
        """Batch analogue of :meth:`submit`; completes with a
        :class:`BatchResponse`."""
        self._runtime.run(self._start, endpoint_id, batch, on_done)

    def _start(
        self,
        endpoint_id: str,
        message: Request | BatchRequest,
        on_done: DoneCallback,
    ) -> None:  # loop thread
        """Send one wire message: eagerly when nothing in it can suspend
        before its reply, as one offload job when it is a ``@blocking``
        call, in a task of its own otherwise.

        Both task-free paths need no fault hook (hooks are consulted on
        the offload executor) and room in the window.  Eager also needs
        no current task (user code must never run inside a task that is
        not its own) and a message that cannot suspend: a batch, whose
        suspending entries get tasks of their own, or a call whose
        skeleton says its method cannot (``Endpoint.may_suspend``; a
        raw exported callable makes no such promise).  The offload path
        needs a call whose skeleton says its method blocks a thread
        (``Endpoint.offloads``).  A message that fails to resolve is
        answered here, whatever path it would have taken.
        """
        try:
            ep, handler = self._resolve_message(endpoint_id, message)
        except ConnectError as exc:
            self._complete(on_done, None, exc)
            return
        if self._fault_hook is None and not self._sema.locked():
            if handler is None or not ep.may_suspend.get(
                message.object_id, _suspends
            )(message.method):
                if asyncio.current_task(self._runtime.loop) is None:
                    context = copy_context()
                    context.run(
                        self._eager, ep, handler, message, on_done, context
                    )
                    return
            elif _offloads(ep, message):
                self._offload_call(ep, message, on_done)
                return
        self._spawn(self._run(
            self._invoke_async(endpoint_id, ep, handler, message), on_done
        ))

    def _eager(
        self,
        ep: Endpoint,
        handler: Any,
        message: Request | BatchRequest,
        on_done: DoneCallback,
        context: Context,
    ) -> None:  # loop thread, run in ``context``
        """Step one message to its reply inside the caller's callback.

        It holds a slot of the window and counts as in flight while it
        runs, as a task would.  Should it suspend after all — a batch
        whose entries were given tasks, a plain method that handed back
        an awaitable — the rest of it becomes the message's one task,
        in the same context and under the deadline its dispatch started
        here.
        """
        size = 1 if handler is not None else len(message.entries)
        _step(self._sema.acquire)  # free: _start saw room in the window
        self._note_inflight(+size)
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
        self._sema.release()
        self._note_inflight(-size)
        self._complete(on_done, reply, error)

    async def _resume(
        self, rest: Any, message: Request | BatchRequest, size: int,
        started: float,
    ) -> Any:
        """The task of an eagerly stepped message that suspended."""
        try:
            return await self._timed(rest, message, started)
        finally:
            self._sema.release()
            self._note_inflight(-size)

    def _offload_call(
        self, ep: Endpoint, request: Request, on_done: DoneCallback
    ) -> None:  # loop thread
        """Send an unbatched ``@blocking`` call with no task: one job on
        the offload executor, one hand-off back (see :class:`_Offloaded`).

        It pays what :meth:`_eager` pays — a slot of the window, the
        in-flight count, one message counted and one trace event — plus
        one loop timer for its deadline, counted from here.
        """
        _step(self._sema.acquire)  # free: _start saw room in the window
        self._note_inflight(+1)
        self._messages.increment()
        if self._tracer is not None:
            self._trace_message(ep, request)
        call = _Offloaded(self, request, on_done)
        self._offloaded.add(call)
        loop = self._runtime.loop
        if self._timeout is not None:
            call.timer = loop.call_at(loop.time() + self._timeout, call.expire)
        try:
            call.job = self._runtime.offload.submit(
                call.run, loop, _sync_handler(ep, request)
            )
        except RuntimeError as exc:  # the executor stopped: interpreter exit
            call.settle(None, exc)

    def _offloaded_reply(self, ep: Endpoint, request: Request) -> Any:
        """The reply of ``request`` run on the offload executor, as a
        loop future: what a batch entry, or a call on the task path,
        awaits.  Cancelling it cancels a job that has not started."""
        return asyncio.wrap_future(
            self._runtime.offload.submit(_sync_handler(ep, request), request),
            loop=self._runtime.loop,
        )

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
        """The endpoint and, for a call, its handler (None for a batch,
        whose entries resolve one by one at dispatch)."""
        if self._closed:
            raise ConnectError("asyncio transport shut down")
        if type(message) is BatchRequest:
            return self._resolve_endpoint(endpoint_id), None
        return self._resolve_aio(endpoint_id, message)

    def _resolve_aio(
        self, endpoint_id: str, request: Request
    ) -> tuple[Endpoint, Any]:
        """Resolve to the endpoint's *async* handler when exported, the
        raw sync handler otherwise (tests export plain callables)."""
        ep = self._resolve_endpoint(endpoint_id)
        handler = ep.ahandlers.get(request.object_id)
        if handler is None:
            handler = ep.handlers.get(request.object_id)
        if handler is None:
            raise ConnectError(
                f"no object {request.object_id!r} at endpoint {ep.name}"
            )
        return ep, handler

    async def _invoke_async(
        self,
        endpoint_id: str,
        ep: Endpoint,
        handler: Any,
        message: Request | BatchRequest,
    ) -> Any:
        """Deliver one resolved wire message, a call or a batch: one
        slot of the dispatch window, one fault-hook consultation, one
        message counted and one trace event, however many calls it
        carries."""
        size = 1 if handler is not None else len(message.entries)
        async with self._sema:
            self._note_inflight(+size)
            try:
                hook = self._fault_hook
                if hook is not None:
                    # Hooks may sleep (injected delays); keep the loop
                    # live by consulting them on the offload executor.
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
                self._note_inflight(-size)

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

        An entry whose method cannot suspend (its skeleton says so, see
        ``Endpoint.may_suspend``) is stepped to its reply right here,
        wherever the batch is being stepped: no entry of that kind pays
        for a task.  A ``@blocking`` entry (``Endpoint.offloads``) is
        one offload job whose reply completes a loop future, and every
        other entry — ``async def``, ``@cpu_bound``, or a handler
        exported with no such promise — gets a task of its own; both
        start once the inline entries are done, so they still overlap.
        Each inline entry runs in its own copy of the context, as its
        task would have given it.  A call with a handler takes the same
        offload path when it blocks a thread (the task path of a
        ``@blocking`` call: a fault hook, a full window).
        """
        if handler is not None:
            if _offloads(ep, message):
                return await self._offloaded_reply(ep, message)
            reply = handler(message)
            return (await reply) if asyncio.iscoroutine(reply) else reply
        entries = message.entries
        responses: list[Any] = [None] * len(entries)
        tasked: list[tuple[int, Any, Any]] = []  # (index, coroutine, context)
        offloaded: list[tuple[int, Request]] = []
        ahandlers, predicates = ep.ahandlers, ep.may_suspend
        try:
            for index, request in enumerate(entries):
                object_id = request.object_id
                handler = ahandlers.get(object_id)
                if handler is None:
                    handler = ep.handlers.get(object_id)
                    if handler is None:
                        responses[index] = Response(
                            kind="unresolved", value=object_id
                        )
                        continue
                    # A raw exported callable: calling it cannot suspend
                    # anything, but what it returns may be a coroutine.
                    inline = (handler, request)
                else:
                    may_suspend = predicates.get(object_id)
                    if may_suspend is None or may_suspend(request.method):
                        if _offloads(ep, request):
                            offloaded.append((index, request))
                        else:
                            tasked.append((index, handler(request), None))
                        continue
                    inline = (_step, handler, request)
                context = copy_context()
                reply = context.run(*inline)
                if type(reply) is not Response and asyncio.iscoroutine(reply):
                    tasked.append((index, reply, context))
                else:
                    responses[index] = reply
        except BaseException:
            # The batch fails as a whole; nothing collected has a task
            # yet, so nothing is left running (or "never awaited").
            for _, coro, _ in tasked:
                coro.close()
            raise
        if tasked or offloaded:
            create_task = self._runtime.loop.create_task
            replies = await asyncio.gather(
                *(self._offloaded_reply(ep, request)
                  for _, request in offloaded),
                *(create_task(coro, context=context)
                  for _, coro, context in tasked),
            )
            indices = [index for index, _ in offloaded]
            indices.extend(index for index, _, _ in tasked)
            for index, reply in zip(indices, replies):
                responses[index] = reply
        return BatchResponse(entries=tuple(responses))

    # -- sync bridges (Transport protocol) ----------------------------------

    def invoke(self, endpoint_id: str, request: Request) -> Response:
        return self._wait_for(self.submit, endpoint_id, request, request.method)

    def invoke_batch(
        self, endpoint_id: str, batch: BatchRequest
    ) -> BatchResponse:
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
        """Cancel this transport's outstanding dispatches.

        Tasks are cancelled; an unbatched ``@blocking`` call still on the
        offload executor completes with the same ``ConnectError`` a
        cancelled task gives, and its reply is dropped when it comes.
        The shared loop and offload executor keep running — they are
        process infrastructure, reused by the next transport.  The cpu
        pool, by contrast, is transport-owned: its worker processes stop
        here so a finished session never strands children.
        """
        self._closed = True
        self._runtime.call_soon(self._cancel_all)
        self._shutdown_cpu_executor()

    def _cancel_all(self) -> None:  # loop thread
        if self._lag_task is not None:
            self._lag_task.cancel()
            self._lag_task = None
        # One turn later: by then every task made so far (a sweep that
        # raced shutdown may just have made one) has taken its first
        # step, so its _run turns the cancellation into a ConnectError.
        loop = self._runtime.loop
        for task in list(self._tasks):
            loop.call_soon(task.cancel)
        for call in list(self._offloaded):
            call.abandon(ConnectError("asyncio transport shut down"))


class _Offloaded:
    """An unbatched ``@blocking`` call on the offload executor.

    Whichever comes first settles it — the job's reply, its deadline
    timer, or ``shutdown()`` — and whatever comes later is dropped: the
    window slot is released and ``on_done`` runs exactly once.  The
    deadline and shutdown also cancel the job, so a call still queued
    behind the executor's workers never runs.
    """

    __slots__ = ("transport", "request", "on_done", "timer", "job")

    def __init__(
        self, transport: AsyncioTransport, request: Request,
        on_done: DoneCallback,
    ) -> None:
        self.transport = transport
        self.request = request
        self.on_done: DoneCallback | None = on_done
        self.timer: asyncio.TimerHandle | None = None
        self.job: Future | None = None

    def run(self, loop: asyncio.AbstractEventLoop, handle: Any) -> None:
        """The job, on an offload worker: dispatch, hand the reply back."""
        try:
            reply, error = handle(self.request), None
        except BaseException as exc:  # noqa: BLE001 - relayed to the loop
            reply, error = None, exc
        loop.call_soon_threadsafe(self.settle, reply, error)

    def settle(self, reply: Any, error: BaseException | None) -> None:
        on_done = self.on_done
        if on_done is None:
            return  # settled already: a late reply, or a late deadline
        self.on_done = None
        if self.timer is not None:
            self.timer.cancel()
        transport = self.transport
        transport._offloaded.discard(self)
        transport._sema.release()
        transport._note_inflight(-1)
        transport._complete(on_done, reply, error)

    def abandon(self, error: BaseException) -> None:
        if self.job is not None:
            self.job.cancel()  # a no-op once a worker has it
        self.settle(None, error)

    def expire(self) -> None:
        self.abandon(self.transport._timeout_error(self.request))


def _sync_handler(ep: Endpoint, request: Request) -> Any:
    """The handler an offload job runs: ``Skeleton.handle``."""
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

    Called in the context the dispatch is to run in.  Should the
    coroutine suspend after all (``Skeleton.handle_async`` does when a
    plain method hands back an awaitable, which it has then already put
    in a task of its own; a batch does once it has given its suspending
    entries theirs), the rest of it is returned as a coroutine for the
    caller to give a task, in this same context.
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
