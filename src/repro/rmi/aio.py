"""Asyncio-native transport: one event loop drives every endpoint.

:class:`ThreadedTransport` charges one blocked OS thread per in-flight
call, so its concurrency ceiling is thread count — a few hundred calls
at best.  :class:`AsyncioTransport` removes that ceiling: sends are loop
callbacks, dispatches are coroutines, and an in-flight call costs at
most one task (~KBs, no stack), so one process sustains tens of
thousands of concurrent calls.

What a task is paid for
    Only a coroutine's run on the loop.  A message is walked to its
    reply where it was sent, inside the sweep or loop callback that
    sent it, with no task and no extra loop turn: each run of
    consecutive entries for one skeleton goes through its
    ``handle_run`` in one pass, admitted, run and counted once per run,
    each call in a context copy of its own; an unbatched call is a run
    of one.  A ``@blocking`` call or batch entry (the exported skeleton
    says which) costs no task either: it is one job on its member's
    pool.  A call that hands back a coroutine (an ``async def``
    method's, or the one a ``@cpu_bound`` call awaits its worker in)
    costs the task that coroutine runs in, in its own context, and
    nothing more: one for an unbatched call, k for a batch with k such
    entries.  What a message then waits on is one :class:`_Call`
    record's, which holds its deadline, window slot and completion.
    No user code in an ``async def`` body runs outside its own task.
    A message is sent from a task of its own only when a fault hook is
    installed, the in-flight window is full, or it is sent from inside
    a task; that task ends once the message is sent.
    ``rmi.aio.loop_lag_ms`` shows the longer loop turns a wave of plain
    handlers costs.

Dispatch rules
    Skeletons dispatch *on the loop*, through ``handle_run``: plain
    methods run inline, batched or not (they must be CPU-light), and
    coroutine methods are awaited in their tasks.  Methods marked with
    :func:`blocking` never touch the loop: the skeleton's synchronous
    ``handle`` — what a ``ThreadedTransport`` worker runs for such a
    call — runs on the member's own pool (``Endpoint.pool``,
    4 workers, made on its first ``@blocking`` call and closed with
    it), so a member brings its own capacity, and drain, redirect and
    the statistics clock see the call when a worker picks it up.  An
    unbatched one submitted off the loop goes onto the pool from the
    submitting thread and is completed by the worker: no loop callback
    runs for it (:class:`_Offload`).

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

import importlib
import threading
from collections import deque
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

# Bound when the first loop starts (_LoopRuntime): a process that never
# builds an AsyncioTransport never loads asyncio, nor the ssl it brings.
asyncio: Any = None
Future: Any = None  # concurrent.futures.Future, which asyncio loads anyway

DEFAULT_INFLIGHT_WINDOW = 16_384
LAG_SAMPLE_INTERVAL_S = 0.05
_SHUT_DOWN = "asyncio transport shut down"


def blocking(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a remote method as genuinely blocking (file/socket/sleep).

    The asyncio transport runs a call of a marked method (the
    skeleton's synchronous ``handle``) on its member's own pool of 4
    workers instead of on the loop — the *only* sanctioned way to block
    in a handler there.  ``ThreadedTransport`` runs it there too, not in
    the caller's thread; ``DirectTransport`` ignores the marker.
    """
    fn.__ermi_blocking__ = True
    return fn


class _LoopRuntime:
    """The shared event loop and its thread."""

    def __init__(self) -> None:
        global asyncio, Future
        asyncio = importlib.import_module("asyncio")
        Future = importlib.import_module("concurrent.futures").Future
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

    ``timeout`` bounds each message that waits on a call's task or a
    pool job; one that runs to its reply where it was sent has no
    deadline to keep (None disables the deadline; it must otherwise be
    positive).  ``inflight_limit`` is the dispatch window.
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
        self._set_timeout(timeout)
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
        # Unsettled records (see _Call) in registration order, which is
        # deadline order: one timer, armed on the loop for the oldest.
        self._calls: dict[_Call, bool] = {}
        self._timer: asyncio.TimerHandle | None = None
        # Loop-thread-only state (no lock needed): the tasks of messages
        # still being sent (_invoke_async) and the lag sampler.
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
        call that waits on nothing has run, ``on_done`` included, by the
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
        target = None if ep is None else ep.objects.get(request.object_id)
        if (
            target is not None and ep.alive and not self._closed
            and self._fault_hook is None and target.offloads(request.method)
            and self._take(1)
        ):
            self._send(ep, target, request, (request,), on_done, None)
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
        """Send one wire message here (:meth:`_send`), or from a task
        (:meth:`_invoke_async`) when a fault hook is installed, the
        window is full, or this runs inside a task and the message is
        to be walked (user code never runs in a task not its own).  A
        message that fails to resolve is answered here.
        """
        try:
            ep, target = self._resolve_message(endpoint_id, message)
        except ConnectError as exc:
            self._complete(on_done, None, exc)
            return
        entries = message.entries if target is None else (message,)
        loop = self._runtime.loop
        if self._fault_hook is None and (
            asyncio.current_task(loop) is None
            or target is not None and target.offloads(message.method)
        ) and self._take(len(entries)):
            self._send(ep, target, message, entries, on_done, loop)
        else:
            self._spawn(self._invoke_async(
                endpoint_id, ep, target, message, entries, on_done
            ))

    def _send(
        self, ep: Endpoint, target: Any, message: Request | BatchRequest,
        entries: tuple[Request, ...], on_done: DoneCallback,
        loop: asyncio.AbstractEventLoop | None,
    ) -> None:  # the loop thread, ``loop``; any, for a hand-off off it
        """Send one resolved message whose slot is taken, with no task.

        An unbatched ``@blocking`` call (the target ``offloads`` it;
        the only message sent off the loop, ``loop`` None) is one job
        on its member's pool; any other message is walked to its
        replies here (:meth:`_walk`).  One whose replies all came is
        answered at once; one that waits on a call's task or a pool
        job gets a :class:`_Call` record, which joins the deadline FIFO
        (waking the loop only when no timer is armed) and completes it.
        """
        self._messages.increment()
        if self._tracer is not None:
            self._trace_message(ep, message)
        size = len(entries)
        if loop is None or target is not None and target.offloads(message.method):
            replies, tasks, offloaded = None, {}, [(0, target)]
        else:
            try:
                replies, tasks, offloaded = self._walk(ep, entries, target)
            except BaseException as exc:  # noqa: BLE001 - relayed to completer
                self._give(size)
                self._complete(on_done, None, exc)
                return
            if not (tasks or offloaded):
                reply = replies[0] if target is not None else BatchResponse(
                    entries=tuple(replies)
                )
                self._give(size)
                self._complete(on_done, reply, None)
                return
            replies = replies if target is None else None
        timeout = self._timeout
        call = _Call(
            self, message, on_done, loop, size, replies, tasks,
            0.0 if timeout is None else self._runtime.loop.time() + timeout,
        )
        self._calls[call] = True
        if timeout is not None and self._timer is None:
            self._runtime.run(self._arm, False)
        for task in tasks:
            task.add_done_callback(call.joined)
        if offloaded:
            try:
                pool = ep.pool or self._pool(ep)
                for index, owner in offloaded:
                    pool.submit(_Offload(call, index, owner.handle, entries[index]))
            except (ConnectError, RuntimeError) as exc:
                call.settle(None, exc)  # killed since; or no thread, at exit

    def _arm(self, fired: bool) -> None:  # loop thread
        """Expire the records past their deadline, oldest first, and
        keep the one timer armed: for the oldest still unsettled, or,
        with none, one timeout from now, so the next records find it
        armed even when the one that asked for it settled first.  A
        timer that fires on none lapses: an idle transport wakes the
        loop at most once per timeout."""
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
            call.settle(None, self._timeout_error(call.message))
        if not fired:
            self._timer = loop.call_at(now + self._timeout, self._arm, True)

    def _oldest(self) -> _Call | None:
        while True:
            try:
                return next(iter(self._calls), None)
            except RuntimeError:  # resized by another thread mid-peek
                continue

    def _spawn(self, coro: Any) -> None:
        # Tasks need a strong reference until done; _reap also surfaces
        # completion-callback bugs via the loop's exception handler
        # instead of a silent "exception never retrieved".
        task = self._runtime.loop.create_task(coro)
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

    # -- dispatch -----------------------------------------------------------

    def _resolve_message(
        self, endpoint_id: str, message: Request | BatchRequest
    ) -> tuple[Endpoint, Any]:
        """The endpoint and, for a call, its target; None for a batch,
        whose entries resolve as they are walked."""
        if self._closed:
            raise ConnectError(_SHUT_DOWN)
        if type(message) is BatchRequest:
            return self._resolve_endpoint(endpoint_id), None
        return self._resolve(endpoint_id, message)

    async def _invoke_async(
        self, endpoint_id: str, ep: Endpoint, target: Any,
        message: Request | BatchRequest, entries: tuple[Request, ...],
        on_done: DoneCallback,
    ) -> None:
        """Send one resolved message from a task: take its slot of the
        window, waiting while it is full, and consult the fault hook
        once however many calls it carries; then send it as
        :meth:`_start` does (:meth:`_send`).  The task ends there: what
        the message waits on after that is its record's."""
        size = len(entries)
        try:
            await self._enter(size)
            try:
                hook = self._fault_hook
                if hook is not None:
                    # Hooks may sleep (injected delays); keep the loop live
                    # by consulting them on the loop's default executor.
                    await self._runtime.loop.run_in_executor(
                        None, hook, endpoint_id,
                        message if target is not None else batch_envelope(message),
                    )
                if self._closed:  # shut down while it waited
                    raise ConnectError(_SHUT_DOWN)
            except BaseException:
                self._give(size)
                raise
        except asyncio.CancelledError:
            on_done(None, ConnectError(_SHUT_DOWN))
        except BaseException as exc:  # noqa: BLE001 - relayed to completer
            on_done(None, exc)
        else:
            self._send(ep, target, message, entries, on_done, self._runtime.loop)

    def _walk(
        self, ep: Endpoint, entries: tuple[Request, ...], target: Any = None
    ) -> tuple[list[Any], dict[Any, int], list[tuple[int, Any]]]:
        """Serve a message's entries in order, here, and say what the
        rest of them wait on (loop thread).

        Each run of consecutive entries for one target is served in one
        pass of its ``handle_run``, which runs each call in a context
        copy of its own and gives one that hands back a coroutine a
        task of its own; an unbatched call is a run of one.  A
        ``@blocking`` entry (``offloads``) ends the run: it is left for
        its member's pool.  Returns ``(replies, tasks, offloaded)``:
        the replies in entry order, None where an entry waits; each
        call's task with its entry's index; and ``(index, target)`` of
        each ``@blocking`` entry.  ``target`` is an unbatched call's,
        resolved when it was sent; a batch's entries resolve here, and
        one whose object is not exported replies ``unresolved``.
        Should a handler raise past its call, the message fails as a
        whole; a task a run made settles its own call.
        """
        loop = self._runtime.loop
        replies: list[Any] = [None] * len(entries)
        tasks: dict[Any, int] = {}
        offloaded: list[tuple[int, Any]] = []
        start = 0  # the first entry of the run of ``target``'s entries
        object_id = None if target is None else entries[0].object_id
        offloads = None if target is None else target.offloads
        for index, request in enumerate((*entries, None)):
            if (
                request is not None and request.object_id == object_id
                and not offloads(request.method)
            ):
                continue
            if start < index:
                served = target.handle_run(entries[start:index], loop)
                for at, reply in enumerate(served, start):
                    if type(reply) is Response:
                        replies[at] = reply
                    else:  # the task of a call that waits
                        tasks[reply] = at
            start = index + 1
            if request is None:
                break
            if request.object_id != object_id:
                object_id = request.object_id
                target = ep.objects.get(object_id)
                if target is None:
                    replies[index] = Response("unresolved", value=object_id)
                    object_id = None
                    continue
                offloads = target.offloads
                if not offloads(request.method):
                    start = index
                    continue
            offloaded.append((index, target))
        return replies, tasks, offloaded

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

        Every unsettled record completes with a ``ConnectError``: the
        call tasks it waits on are cancelled, a pool job of it still
        queued never runs, and the reply of one running is dropped when
        it comes.  A message still waiting for its slot or its fault
        hook completes the same way.  The shared loop keeps running —
        process infrastructure, reused by the next transport.  The
        transport-owned cpu pool stops here, so a finished session
        never strands worker processes.
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
        # step, so _invoke_async turns the cancellation into a
        # ConnectError.
        loop = self._runtime.loop
        for task in list(self._tasks):
            loop.call_soon(task.cancel)
        for call in list(self._calls):
            call.settle(None, ConnectError(_SHUT_DOWN))
        self._close_pools()


class _Call:
    """The one record of a sent message whose reply waits: on the tasks
    of its calls that handed back a coroutine, on jobs on its member's
    pool (:class:`_Offload`, a ``@blocking`` call or batch entry), or
    on both (:meth:`AsyncioTransport._send`).

    It holds ``on_done``, the deadline, the window slot the message
    took (``size`` calls in flight), a batch's ``replies`` with the
    count still ``outstanding``, and the ``tasks`` it waits on, each
    with its entry's index.  Whichever comes first settles it — the
    last reply, an error (a member's kill fails its queued jobs with
    the retryable "is down" ``ConnectError``), its deadline, or
    ``shutdown()`` — and whatever comes later is dropped.  The claim is
    one atomic ``dict.pop`` from the transport's FIFO of unsettled
    records, so the slot is given back and ``on_done`` runs once, on
    the thread that settled it; the tasks it still waits on are
    cancelled (each gives back its skeleton slot as it ends), and a
    job still queued never runs.  A record sent on the loop (``loop``
    set) is settled there: a job's outcome hops.
    """

    __slots__ = (
        "transport", "message", "on_done", "loop", "size", "replies",
        "outstanding", "tasks", "deadline",
    )

    def __init__(
        self, transport: AsyncioTransport, message: Request | BatchRequest,
        on_done: DoneCallback, loop: asyncio.AbstractEventLoop | None,
        size: int, replies: list[Any] | None, tasks: dict[Any, int],
        deadline: float,
    ) -> None:
        self.transport, self.message, self.on_done = transport, message, on_done
        self.loop, self.size, self.replies, self.tasks = loop, size, replies, tasks
        self.outstanding = 0 if replies is None else replies.count(None)
        self.deadline = deadline

    def joined(self, task: asyncio.Task) -> None:  # loop thread
        error = ConnectError(_SHUT_DOWN) if task.cancelled() else task.exception()
        self.fill(self.tasks[task], task.result() if error is None else None, error)

    def fill(self, index: int, reply: Any, error: BaseException | None) -> None:
        """Entry ``index`` replied: settle on the last reply, or on an
        error, which fails the message as a whole."""
        replies = self.replies
        if error is None and replies is not None:
            replies[index] = reply
            self.outstanding -= 1
            if self.outstanding:
                return
            reply = BatchResponse(entries=tuple(replies))
        self.settle(reply, error)

    def settle(self, reply: Any, error: BaseException | None) -> None:
        transport = self.transport
        if transport._calls.pop(self, None) is None:
            return  # settled already: a late reply, deadline or kill
        transport._give(self.size)
        for task in self.tasks:
            # A turn later, once it has taken its first step: the
            # coroutine its call handed back is never left unawaited.
            if not task.done():
                self.loop.call_soon(task.cancel)
        transport._complete(self.on_done, reply, error)


class _Offload:
    """A ``@blocking`` call or batch entry a record waits on: one job on
    its member's pool running ``handler`` (the target's ``handle``),
    which fills its entry of ``call`` and never runs once ``call`` has
    settled."""

    __slots__ = ("call", "index", "handler", "arg", "result", "error")

    def __init__(
        self, call: _Call, index: int, handler: Any, request: Request
    ) -> None:
        self.call, self.index, self.handler, self.arg = call, index, handler, request
        self.result = self.error = None

    def fn(self, request: Request) -> Any:  # a worker, at dequeue
        if self.call not in self.call.transport._calls:
            return None  # settled while it queued: never run
        return self.handler(request)

    def finish(self) -> None:  # the worker that ran it, or a kill
        call = self.call
        if call.loop is None:
            call.fill(self.index, self.result, self.error)
        else:
            call.loop.call_soon_threadsafe(
                call.fill, self.index, self.result, self.error
            )


def _bridge(waiter: Future) -> DoneCallback:
    """Adapt a completion callback onto a concurrent future."""

    def on_done(result: Any, error: BaseException | None) -> None:
        if error is not None:
            waiter.set_exception(error)
        else:
            waiter.set_result(result)

    return on_done
