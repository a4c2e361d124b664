"""Adaptive client-side request batching (the stub's coalescing layer).

Every call used to be one wire message.  The batcher sits between the
stub's retry loop and the transport and coalesces concurrent calls bound
for the *same endpoint* into one :class:`BatchRequest`, amortizing
per-message overhead (fault-hook consultation, message accounting,
executor submission) across many logical invocations — the JCloudScale/
Swift observation that elastic-RMI cost is dominated by per-message
setup, not by payload bytes.

One discipline: a FIFO queue per endpoint, a window of batches in
flight per queue, and a pending entry that always has a sweep coming.
A *sweep* takes up to ``max_batch`` entries off a queue while the window
has room (a forced sweep — a flush — goes past it) and flies them as one
batch, and repeats until the queue is empty or the window is full.  A
batch's completion frees its slot and settles its entries.  What the
transport decides is read once, at construction:

- **How a batch flies, and who sweeps.**  On an asynchronous transport
  (:class:`~repro.rmi.aio.AsyncioTransport`) a batch flies through the
  callback API (``submit`` / ``submit_batch``) and the send returns at
  once: with the batch completed, when nothing in it can suspend (the
  transport runs it inside the sweep), or with its task started.
  Sweeps run on the event loop, and a later completion that finds
  entries the window held back sweeps again there; one inside the
  sweep that flew its batch leaves them to that sweep.  A queue that fills
  schedules one deduped sweep of itself; a *waiter* schedules one sweep
  of every queue that went non-empty since the last one
  (:meth:`RequestBatcher._kick_ready`).  Entries settle on the loop; a
  full pipeline parks no thread.  Elsewhere a batch flies
  through ``invoke`` / ``invoke_batch`` and has completed when the send
  returns, in the thread that sent it, which goes on sweeping.  Sweeps
  run inline in the waiting or submitting thread, so up to ``window``
  caller threads sweep one endpoint at once and everyone else parks on
  their own future alone — a completion wakes exactly the callers it
  resolved.  Blocking delivery stays on the sending thread because that
  thread is what enforces :class:`ThreadedTransport`'s deadline.
- **How wide the window is** (``inflight_limit``).  Where completions
  run in the caller's own thread (:class:`DirectTransport`) it is
  unbounded: nothing else will ever send, so a handler's re-entrant
  batched call must fly past the batch it runs inside instead of
  waiting on it.  Single-threaded and reproducible, which keeps the obs
  determinism gate honest.

The queue map follows the membership instead of only growing: when a
queue is made for a new endpoint, idle queues of endpoints the
transport reports dead or unknown are left out of the new map.
Everything below the public entry points is handed the queue *object*,
never an id to look up again, so an entry submitted in a race with the
prune still flies and fails with the dead endpoint's
:class:`ConnectError`.

Per-call semantics are preserved exactly: each entry's future resolves
to that entry's own :class:`Response` (result / error / redirect /
drained), which the stub interprets just as it would an unbatched reply.
A whole-batch transport failure (an injected drop, a dead endpoint, a
batch timeout) fails every entry's future with the same exception, so
every logical call re-enters its own retry loop independently.  An
``unresolved`` entry (object not exported at the endpoint) is converted
here to the :class:`ConnectError` the unbatched path would have raised.

Entry payloads — pickled bytes or zero-copy ``FastPayload`` — ride the
batch exactly as marshalled; the batcher never touches them.

Configuration (constructor arguments):

- ``max_batch`` — max entries per batch; ``1`` (default) disables
  batching entirely (stubs skip the batcher, zero new branches hot).
  An :class:`~repro.core.balancer.ElasticStub` built without a batcher
  reads ``ERMI_BATCH_MAX`` once and builds one when it is above 1.
- ``inflight_limit`` — in-flight batch window per endpoint
  (``DEFAULT_INFLIGHT``, 2: one on the wire, one forming).
"""

from __future__ import annotations

import math
import operator
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.errors import ConnectError, RemoteError
from repro.rmi.envcfg import env_int
from repro.rmi.future import RmiFuture
from repro.rmi.transport import BatchRequest, Request, Response, Transport

DEFAULT_INFLIGHT = 2

# A completer owns finishing one entry's future: called by whoever
# completes the batch with exactly one of (response, error) non-None, it
# must call set_result/set_exception itself.  Stubs use completers to
# interpret the raw Response (unmarshal, follow redirects, feed the
# retry loop) without a second chained future per call.
Completer = Callable[
    [RmiFuture, "Response | None", "BaseException | None"], None
]

# One queued logical call: its wire request, the future the caller
# holds, and the optional completer that finishes it.
_Entry = tuple[Request, RmiFuture, "Completer | None"]


def batch_max_from_env() -> int:
    return env_int("ERMI_BATCH_MAX", 1)


@dataclass
class BatcherStats:
    """Counters a batcher accumulates (cheap: touched once per *batch*)."""

    batches: int = 0
    entries: int = 0
    inflight_hwm: int = 0

    def coalesce_ratio(self) -> float:
        """Mean logical calls per wire message; 1.0 when nothing coalesced."""
        return 1.0 if self.batches == 0 else self.entries / self.batches


class _EndpointQueue:
    """Pending entries and in-flight batches for one endpoint.

    ``flying`` counts this queue's batches on the wire: the window.  Two
    flags dedupe sweeps: ``scheduled`` (a sweep of this queue alone is
    on its way) and ``ready`` (on the loop: the queue sits in the
    batcher's ready list, waiting for a waiter's sweep).  All four
    fields change only under ``lock``.

    ``wait_hook`` is what a waiter on any of this queue's futures runs
    to get its entry moving; it is built once, with the queue.
    ``sweeping`` is loop-thread state: a sweep of this queue is on the
    loop's stack, so a batch completing inside its own flight leaves
    what is pending to that sweep.
    """

    __slots__ = (
        "endpoint_id", "wait_hook", "lock", "pending",
        "flying", "scheduled", "ready", "sweeping",
    )

    def __init__(self, endpoint_id: str) -> None:
        self.endpoint_id = endpoint_id
        self.wait_hook: Callable[[], None] | None = None
        self.lock = threading.Lock()
        self.pending: list[_Entry] = []
        self.flying = 0
        self.scheduled = False
        self.ready = False
        self.sweeping = False

    def idle(self) -> bool:
        """Nothing queued, nothing on the wire, no sweep on its way."""
        return not (self.pending or self.flying or self.scheduled or self.ready)


class RequestBatcher:
    """Coalesces same-endpoint invocations into batch wire messages."""

    def __init__(
        self,
        transport: Transport,
        max_batch: int = 1,
        linger: float = 0.0,
        inflight_limit: int = DEFAULT_INFLIGHT,
        caller: str = "client",
        obs: Any = None,
    ) -> None:
        if linger:
            raise ValueError(
                "RequestBatcher linger was removed: a sweep never holds "
                "a partial batch back; pass linger=0 or leave it out"
            )
        self._transport = transport
        self._max_batch = max_batch
        inflight_limit = max(1, inflight_limit)
        self._caller = caller
        self._obs = obs
        # Completions on the event loop: batches fly through the callback
        # API, and sweeps run on the loop.  Elsewhere they run right here,
        # in the calling thread.
        self._on_loop = bool(getattr(transport, "asynchronous", False))
        self._run: Callable[[Callable[[], None]], None] = (
            transport.schedule if self._on_loop else operator.call
        )
        # Completions in the caller's own thread: nobody else will ever
        # send, so a window could only make a re-entrant call wait on
        # the batch it runs inside.
        self._window = inflight_limit if transport.concurrent else math.inf
        # Waiting *on* the loop thread would deadlock: every future of a
        # loop batcher carries the transport's guard.
        self._wait_guard = transport.wait_guard if self._on_loop else None
        # On the loop: queues that went non-empty since the last waiter's
        # sweep (each at most once, see ``_EndpointQueue.ready``), and
        # whether such a sweep is already scheduled.
        self._ready: deque[_EndpointQueue] = deque()
        self._sweep_scheduled = False
        self._sweep_lock = threading.Lock()
        self.stats = BatcherStats()
        self._stats_lock = threading.Lock()
        self._queues: dict[str, _EndpointQueue] = {}
        self._admin_lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._max_batch > 1

    # -- entry points ------------------------------------------------------

    def dispatch(self, endpoint_id: str, request: Request) -> Response:
        """Send one call through the batcher and block for its reply.

        This is the drop-in replacement for ``transport.invoke`` on the
        stub's synchronous path; raises whatever the wire raised.  The
        future's wait hook gets the entry moving, pipelined with
        whatever is already queued for this endpoint.
        """
        if self._max_batch <= 1:
            return self._transport.invoke(endpoint_id, request)
        if self._on_loop:
            self._wait_guard()  # refuse before queueing
        return self._enqueue(endpoint_id, request, None)[0].result()

    def submit(
        self,
        endpoint_id: str,
        request: Request,
        completer: Completer | None = None,
    ) -> RmiFuture:
        """Deferred enqueue (the async path).

        Without a ``completer`` the returned future resolves to this
        entry's raw :class:`Response`.  With one, whoever completes the
        batch calls ``completer(future, response, error)`` instead —
        exactly one of ``response``/``error`` is non-None — and the
        completer owns completing the future (stubs use this to
        interpret the response in place, so one future carries the call
        end to end).

        The entry is sent when the queue reaches ``max_batch``, when the
        owning stub flushes (drain, membership change), when a sweep
        already under way reaches it, or — via the bound wait hook — the
        moment anyone waits on the future.  Short of filling the queue
        (off the loop, the submit that fills it sweeps it) the
        submitting thread never parks, so a caller can pipeline a
        window of submissions and gather once.
        """
        future, q, full = self._enqueue(endpoint_id, request, completer)
        if full:
            self._kick(q)
        return future

    def flush(self, endpoint_id: str | None = None) -> None:
        """Send every pending entry now (drain protocol).

        Forced: ignores the in-flight window so a draining stub can
        never strand queued calls behind backpressure.
        """
        for q in self._selected(endpoint_id):
            if q.pending:
                self._run(partial(self._sweep, q, True))

    def pending_count(self, endpoint_id: str | None = None) -> int:
        total = 0
        for q in self._selected(endpoint_id):
            with q.lock:
                total += len(q.pending)
        return total

    def _selected(self, endpoint_id: str | None) -> list[_EndpointQueue]:
        """Every queue, or the endpoint's own (if it has one).  The map
        is copy-on-write: what this returns is a snapshot."""
        if endpoint_id is None:
            return list(self._queues.values())
        q = self._queues.get(endpoint_id)
        return [] if q is None else [q]

    # Everything below is handed the queue *object*: a queue pruned from
    # the map (see ``_queue``) while a submitter still holds it must
    # keep working, so nothing re-looks a queue up by endpoint id.

    # -- who sweeps ----------------------------------------------------------

    def _kick(self, q: _EndpointQueue) -> None:
        """A full queue: one sweep of it, deduped via ``q.scheduled`` —
        on the loop a burst of submitters costs one callback."""
        with q.lock:
            if q.scheduled:
                return
            q.scheduled = True
        self._run(partial(self._sweep, q))

    def _kick_ready(self) -> None:
        """The wait hook of every loop future: schedule one sweep of
        *all* the queues that hold entries no sweep has seen.

        A waiter has stopped submitting, so nothing it sent is worth
        holding back: the wave's batches — one per member — go out in
        one loop callback and share the wire, and the waiter is parked
        and woken once per wave, not once per member.  Only queues that
        went non-empty are visited; the batcher never scans its map.
        """
        if not self._ready:
            return
        with self._sweep_lock:
            if self._sweep_scheduled:
                return
            self._sweep_scheduled = True
        self._transport.schedule(self._sweep_ready)

    def _sweep_ready(self) -> None:  # event loop
        # Cleared before the first pop: a waiter that finds it still set
        # queued its entry before this sweep looks at the list.
        self._sweep_scheduled = False
        ready = self._ready
        while ready:
            q = ready.popleft()
            with q.lock:
                q.ready = False  # an entry queued from here on re-lists it
            self._sweep(q)

    # -- the sweep -----------------------------------------------------------

    def _sweep(self, q: _EndpointQueue, forced: bool = False) -> None:
        """Fly batches off ``q`` until it is empty or the window is full
        (``forced``: until it is empty).

        On the loop a flight returns once its batch has either completed
        (the transport stepped it to its reply) or been given a task;
        the sweep goes on either way, and a completion that finds
        entries held back by the window sweeps again unless this sweep
        is still under way.  Elsewhere each flight
        has completed when it returns, so the sweeping thread serves
        batch after batch — its own entry usually in the first — and
        leaves only when the queue is empty or the window is held by
        other threads, each of which sweeps again after its own flight:
        a pending entry always has a sweep coming.
        """
        q.sweeping = self._on_loop  # only ever read on the loop
        try:
            while True:
                with q.lock:
                    q.scheduled = False  # whichever sweep this is, it serves a kick
                    if not q.pending or (q.flying >= self._window and not forced):
                        return
                    batch = q.pending[: self._max_batch]
                    del q.pending[: len(batch)]
                    q.flying += 1
                    inflight = q.flying
                self._fly(q, batch, inflight)
        finally:
            q.sweeping = False

    def _fly(self, q: _EndpointQueue, batch: list[_Entry], inflight: int) -> None:
        """Put one batch on the wire; :meth:`_done` completes it."""
        endpoint_id = q.endpoint_id
        self._note_batch(endpoint_id, len(batch), inflight)
        transport = self._transport
        if len(batch) == 1:
            # A singleton is wire-identical to the unbatched path.
            message: Any = batch[0][0]
            send = transport.submit if self._on_loop else transport.invoke
        else:
            message = BatchRequest(
                entries=tuple([request for request, _, _ in batch]),
                caller=self._caller,
            )
            send = transport.submit_batch if self._on_loop else transport.invoke_batch
        if self._on_loop:
            send(endpoint_id, message, partial(self._done, q, batch))
            return
        try:
            reply, error = send(endpoint_id, message), None
        except BaseException as exc:  # noqa: BLE001 - relayed per entry
            reply, error = None, exc
        self._done(q, batch, reply, error)

    def _done(
        self,
        q: _EndpointQueue,
        batch: list[_Entry],
        reply: Any,
        error: BaseException | None,
    ) -> None:
        """One batch completed: free its slot, settle every entry and —
        on the loop, where no sweeping thread is waiting to go on —
        sweep again if the window held entries back.  Not from inside
        the sweep that flew the batch: its loop takes what is pending,
        where a sweep from here would nest one sweep per batch of
        backlog.  Completers must not block on the loop; stubs offload
        anything that re-dispatches synchronously."""
        with q.lock:
            q.flying -= 1
            # Decided before settling: entries a settled caller queues
            # next belong to its next wave and to the sweep its wait
            # schedules, not to a partial batch flown from here.
            held_back = self._on_loop and bool(q.pending) and not q.sweeping
        self._settle(q.endpoint_id, batch, reply, error)
        if held_back:
            self._sweep(q)

    def _settle(
        self,
        endpoint_id: str,
        batch: list[_Entry],
        reply: Any,
        error: BaseException | None,
    ) -> None:
        """Complete every entry of one delivered (or failed) batch.

        ``reply`` is a :class:`Response` for a singleton, a
        :class:`BatchResponse` otherwise.  A whole-batch failure (drop,
        dead endpoint, timeout) fails every entry identically so each
        logical call re-enters its own retry loop; a shape mismatch is a
        wire-protocol error for all; an ``unresolved`` entry becomes the
        ConnectError the unbatched resolve path would have raised.
        """
        if error is None:
            responses = (reply,) if len(batch) == 1 else reply.entries
            if len(responses) != len(batch):
                error = RemoteError(
                    f"batch reply shape mismatch: {len(batch)} entries, "
                    f"{len(responses)} responses"
                )
        if error is not None:
            for _, future, completer in batch:
                self._resolve(future, completer, None, error)
            return
        for (request, future, completer), response in zip(batch, responses):
            if response.kind == "unresolved":
                missing = ConnectError(
                    f"no object {request.object_id!r} at endpoint "
                    f"{self._endpoint_name(endpoint_id)}"
                )
                self._resolve(future, completer, None, missing)
            else:
                self._resolve(future, completer, response, None)

    @staticmethod
    def _resolve(
        future: RmiFuture,
        completer: Completer | None,
        response: Response | None,
        error: BaseException | None,
    ) -> None:
        """Complete one entry, delegating to its completer when bound.

        Completers own the future and must not raise; a defensive catch
        keeps one bad completion from failing the whole batch's
        remaining entries.
        """
        try:
            if completer is not None:
                completer(future, response, error)
            elif error is not None:
                future.set_exception(error)
            else:
                future.set_result(response)
        except BaseException as exc:  # noqa: BLE001 - last-resort relay
            if not future.done():
                future.set_exception(exc)

    # -- plumbing ----------------------------------------------------------

    def _queue(self, endpoint_id: str) -> _EndpointQueue:
        """The endpoint's queue, created (and the map pruned) on a miss.

        The map is copy-on-write, matching the transports' read-mostly
        maps, and the copy made for a new endpoint leaves out what a
        resizing pool leaves behind: queues that are idle and whose
        endpoint the transport reports dead or unknown.  A submitter
        that raced the prune still holds its queue object, and every
        path below the entry points works on the object: its entry flies
        and fails with the ``ConnectError`` a dead endpoint gives.
        """
        with self._admin_lock:
            q = self._queues.get(endpoint_id)
            if q is None:
                q = _EndpointQueue(endpoint_id)
                q.wait_hook = (
                    self._kick_ready if self._on_loop
                    else partial(self._sweep, q)
                )
                queues = {
                    eid: old for eid, old in self._queues.items()
                    if not (old.idle() and self._gone(eid))
                }
                queues[endpoint_id] = q
                self._queues = queues
            return q

    def _enqueue(
        self,
        endpoint_id: str,
        request: Request,
        completer: Completer | None,
    ) -> tuple[RmiFuture, _EndpointQueue, bool]:
        """Queue one entry; returns its future, its queue, and whether
        the queue now holds a full batch — one look-up, one critical
        section."""
        q = self._queues.get(endpoint_id) or self._queue(endpoint_id)
        future = RmiFuture()
        future.bind_wait_hook(q.wait_hook)
        future.bind_wait_guard(self._wait_guard)
        with q.lock:
            q.pending.append((request, future, completer))
            full = len(q.pending) >= self._max_batch
            if self._on_loop and not q.ready:
                q.ready = True
                self._ready.append(q)
        return future, q, full

    def _gone(self, endpoint_id: str) -> bool:
        try:
            return not self._transport.endpoint(endpoint_id).alive
        except ConnectError:
            return True

    def _endpoint_name(self, endpoint_id: str) -> str:
        try:
            return self._transport.endpoint(endpoint_id).name
        except ConnectError:
            return endpoint_id

    def _note_batch(self, endpoint_id: str, size: int, inflight: int) -> None:
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.entries += size
            hwm = self.stats.inflight_hwm = max(
                self.stats.inflight_hwm, inflight
            )
        obs = self._obs
        if obs is None:
            return
        registry = obs.registry
        registry.counter("rmi.client.batches").inc()
        registry.counter("rmi.client.batched_entries").inc(size)
        registry.histogram("rmi.client.batch_size").observe(float(size))
        registry.gauge("rmi.client.batch_inflight").set(float(inflight))
        registry.gauge("rmi.client.batch_inflight_hwm").set(float(hwm))
        obs.tracer.emit(
            "batcher", "batch",
            endpoint=self._endpoint_name(endpoint_id),
            size=size, inflight=inflight, caller=self._caller,
        )
