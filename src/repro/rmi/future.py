"""Client-side invocation futures for the asynchronous RMI surface.

``stub.invoke_async(...)`` returns an :class:`RmiFuture` — the handle a
caller polls, waits on, or chains callbacks to while the invocation is
in flight.  The class is deliberately smaller than
:class:`concurrent.futures.Future`: there is no cancellation (a remote
call that has left the stub cannot be recalled) and no run/notify state
machine, just pending → done with either a value or an exception.

Two execution styles feed an RmiFuture:

- **threaded** — live runtimes complete the future from whatever thread
  carried the invocation (an async-invoker worker or a batch sender);
- **deferred** — the request batcher queues the invocation and sends
  it when the batch fills, the stub is flushed, or *someone waits on
  it*.  The wait hook installed via :meth:`bind_wait_hook` is what lets
  :meth:`result` start a sweep of the queue instead of deadlocking on a
  call that was never sent.

A shared :func:`async_executor` carries ``invoke_async`` bodies in live
mode.  It is created lazily, sized for stub fan-out rather than CPU
count, and shared process-wide so a thousand stubs do not spawn a
thousand pools.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import RemoteError

if TYPE_CHECKING:  # imported when the pool is made
    from concurrent.futures import ThreadPoolExecutor

_UNSET = object()


class InvocationTimeout(RemoteError):
    """Waiting on an :class:`RmiFuture` exceeded the caller's timeout.

    The invocation itself may still complete later — only the *wait*
    gave up, mirroring ``concurrent.futures.TimeoutError`` semantics
    while staying inside the :class:`~repro.errors.RemoteError` family
    RMI callers already handle.
    """


class RmiFuture:
    """The result of one asynchronous remote invocation.

    Thread-safe: any thread may wait while another completes.  Callbacks
    added with :meth:`add_done_callback` run exactly once, in the
    completing thread (or immediately in the caller's thread when the
    future is already done).

    Deliberately allocation-light: the pipelined batching path creates
    one future per logical call, so construction is a plain lock (a
    C-level primitive) and the park/wake machinery — a
    :class:`threading.Event` — is allocated lazily, only by a waiter
    that actually has to block.  A gathered window of pipelined calls
    typically parks on its *first* future at most; the rest are already
    done and never pay for an event.
    """

    __slots__ = (
        "_lock", "_event", "_done", "_value", "_error",
        "_callbacks", "_wait_hook", "_wait_guard",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._event: threading.Event | None = None
        self._done = False
        self._value: Any = _UNSET
        self._error: BaseException | None = None
        self._callbacks: list[Callable[["RmiFuture"], None]] | None = None
        self._wait_hook: Callable[[], None] | None = None
        self._wait_guard: Callable[[], None] | None = None

    # -- completion (producer side) ---------------------------------------

    def set_result(self, value: Any) -> None:
        self._finish(value=value)

    def set_exception(self, error: BaseException) -> None:
        self._finish(error=error)

    def _finish(
        self, value: Any = _UNSET, error: BaseException | None = None
    ) -> None:
        with self._lock:
            if self._done:
                raise RuntimeError("RmiFuture already completed")
            self._value = value
            self._error = error
            self._done = True
            event = self._event
            callbacks = self._callbacks
            self._callbacks = None
        if event is not None:
            event.set()
        if callbacks:
            for callback in callbacks:
                callback(self)

    # -- deferred-dispatch plumbing ---------------------------------------

    def bind_wait_hook(self, hook: Callable[[], None]) -> None:
        """Install the callable a blocking wait runs first.

        The request batcher binds a sweep here, so ``result()`` on a
        queued-but-unsent invocation sends the pending batch instead of
        waiting forever.
        """
        self._wait_hook = hook

    def _run_wait_hook(self) -> None:
        hook = self._wait_hook
        if hook is not None:
            self._wait_hook = None  # flush once; re-entry would recurse
            hook()

    def bind_wait_guard(self, guard: Callable[[], None]) -> None:
        """Install a check every blocking wait runs before parking.

        The asyncio transport binds its loop-thread guard here: a
        ``result()`` from the event-loop thread would deadlock (the
        completion it waits for runs on that very thread), so the guard
        raises instead.  Waits from any other thread are untouched, and
        an already-done future never consults the guard.
        """
        self._wait_guard = guard

    # -- consumption (caller side) ----------------------------------------

    def done(self) -> bool:
        return self._done

    def wait(self, timeout: float | None = None) -> bool:
        """Block until completed (or ``timeout``); True when done."""
        if self._done:
            return True
        guard = self._wait_guard
        if guard is not None:
            guard()
        self._run_wait_hook()
        if self._done:  # the hook's flush often completes us right here
            return True
        with self._lock:
            if self._done:
                return True
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        event.wait(timeout)
        return self._done

    def result(self, timeout: float | None = None) -> Any:
        """The invocation's return value; re-raises its exception."""
        if not self.wait(timeout):
            raise InvocationTimeout(
                f"invocation result not ready within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The invocation's exception, or None if it succeeded."""
        if not self.wait(timeout):
            raise InvocationTimeout(
                f"invocation outcome not ready within {timeout}s"
            )
        return self._error

    def add_done_callback(self, fn: Callable[["RmiFuture"], None]) -> None:
        with self._lock:
            if not self._done:
                if self._callbacks is None:
                    self._callbacks = [fn]
                else:
                    self._callbacks.append(fn)
                return
        fn(self)

    @classmethod
    def completed(cls, value: Any) -> "RmiFuture":
        """An already-successful future (the eager-execution path)."""
        future = cls()
        future.set_result(value)
        return future

    @classmethod
    def failed(cls, error: BaseException) -> "RmiFuture":
        """An already-failed future (the eager-execution path)."""
        future = cls()
        future.set_exception(error)
        return future


def gather(
    futures: Iterable[RmiFuture], timeout: float | None = None
) -> list[Any]:
    """Results of ``futures`` in order; raises the first failure."""
    return [future.result(timeout) for future in futures]


# ----------------------------------------------------------------------
# the shared async-invoker pool (live mode)
# ----------------------------------------------------------------------

_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()
ASYNC_WORKERS = 32


def async_executor() -> ThreadPoolExecutor:
    """The process-wide pool that runs ``invoke_async`` bodies live.

    Sized for I/O-shaped work (invocations spend their life blocked on
    the transport), created on first use, shared by every stub.
    """
    global _executor
    if _executor is None:
        with _executor_lock:
            if _executor is None:
                from concurrent.futures import ThreadPoolExecutor
                _executor = ThreadPoolExecutor(
                    max_workers=ASYNC_WORKERS,
                    thread_name_prefix="ermi-async",
                )
    return _executor


def run_async(fn: Callable[[], Any]) -> RmiFuture:
    """Run ``fn`` on the shared pool, bridging into an RmiFuture."""
    future = RmiFuture()

    def body() -> None:
        try:
            result = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed, not hidden
            future.set_exception(exc)
        else:
            future.set_result(result)

    async_executor().submit(body)
    return future
