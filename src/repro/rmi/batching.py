"""Adaptive client-side request batching (the stub's coalescing layer).

Every call used to be one wire message.  The batcher sits between the
stub's retry loop and the transport and coalesces concurrent calls bound
for the *same endpoint* into one :class:`BatchRequest`, amortizing
per-message overhead (fault-hook consultation, message accounting,
executor submission) across many logical invocations — the JCloudScale/
Swift observation that elastic-RMI cost is dominated by per-message
setup, not by payload bytes.

Three dispatch disciplines, chosen by the transport's capabilities:

- **combiner** (live, :class:`ThreadedTransport`) — an arriving caller
  enqueues its entry and, if fewer than ``inflight_limit`` *senders*
  are active for the endpoint, becomes one: it loops taking batches of
  up to ``max_batch`` entries off the queue and flying them, retiring
  only once the queue is empty.  Everyone else parks on their own
  future alone — no shared condition, so a batch completion wakes
  exactly the callers it resolved.  The sender cap is the bounded
  in-flight window: backpressure, and the mechanism that grows batches
  (while every sender slot is busy, arrivals accumulate and the next
  take sweeps them all).  A lone caller elects itself, flies a
  singleton, finds the queue empty and retires — one lock handoff over
  the unbatched path.
- **deferred** (deterministic, :class:`DirectTransport`) — nothing runs
  on other threads.  ``submit`` queues the entry and returns a future
  whose *wait hook* flushes the queue: the batch is sent in the waiting
  thread the moment someone calls ``result()`` (or the queue reaches
  ``max_batch``, or the stub flushes on drain).  Single-threaded and
  reproducible, which keeps the obs determinism gate honest.
- **loop drain** (asynchronous, :class:`~repro.rmi.aio.AsyncioTransport`)
  — nobody's thread becomes a sender.  A queue that fills schedules one
  deduped sweep of itself *on the transport's event loop*; a *waiter*
  — who has stopped submitting — schedules one sweep of **every** queue
  that holds entries no sweep has seen (tracked as queues go non-empty,
  never by scanning the map), so a gathered wave's batches, one per
  member, leave in a single loop callback and share the wire: one loop
  wake-up and one park/wake of the caller per wave.  A sweep takes
  batches off a queue up to the in-flight window (``flying`` tracks
  wire batches) and submits them via the transport's callback API;
  completions sweep the queue again, on the loop, while entries remain.
  Entries settle on the loop, so a full pipeline — submit window,
  coalesce, fly, complete — runs without parking a single thread.

What a call pays on the way in is one queue look-up and one critical
section (append, fullness test, ready-marking or linger notify); the
wait hook is built once per queue — once per batcher on the loop — and
the loop-thread wait guard once per batcher.

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

Configuration (all read once, at stub construction):

- ``ERMI_BATCH_MAX`` — max entries per batch; ``1`` (default) disables
  batching entirely (stubs skip the batcher, zero new branches hot).
- ``ERMI_BATCH_LINGER_MS`` — how long an elected sender waits for the
  queue to fill before flying a partial batch; ``0`` (default) never
  waits.
- ``ERMI_BATCH_INFLIGHT`` — in-flight batch window per endpoint
  (default 2: one on the wire, one forming).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.errors import ConnectError, RemoteError
from repro.rmi.envcfg import env_float, env_int
from repro.rmi.future import RmiFuture
from repro.rmi.transport import BatchRequest, Request, Response, Transport

DEFAULT_INFLIGHT = 2

# A completer owns finishing one entry's future: called by the sender
# thread with exactly one of (response, error) non-None, it must call
# set_result/set_exception itself.  Stubs use completers to interpret
# the raw Response (unmarshal, follow redirects, feed the retry loop)
# without a second chained future per call.
Completer = Callable[
    [RmiFuture, "Response | None", "BaseException | None"], None
]

# One queued logical call: its wire request, the future the caller
# holds, and the optional completer that finishes it.
_Entry = tuple[Request, RmiFuture, "Completer | None"]


def batch_max_from_env() -> int:
    return env_int("ERMI_BATCH_MAX", 1)


def batch_linger_from_env() -> float:
    """Linger in *seconds* (the env var is milliseconds)."""
    return env_float("ERMI_BATCH_LINGER_MS", 0.0) / 1e3


def batch_inflight_from_env() -> int:
    return env_int("ERMI_BATCH_INFLIGHT", DEFAULT_INFLIGHT)


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
    """Pending entries + active senders for one endpoint.

    ``senders`` counts the caller threads currently draining this queue
    (each has at most one batch on the wire, so it is also the in-flight
    batch window).  Invariant, maintained under ``cond``: a pending
    entry implies at least one active sender — an enqueuer that sees a
    free sender slot takes it, and a sender only retires after finding
    the queue empty under the same lock.

    The loop drain discipline uses ``flying`` (wire batches in flight;
    the loop-side in-flight window) instead of ``senders``, plus two
    dedup flags: ``scheduled`` (a sweep of this queue alone is queued on
    the event loop) and ``ready`` (the queue sits in the batcher's
    ready list, waiting for a waiter's sweep).

    ``wait_hook`` is what a waiter on any of this queue's futures runs
    to get its entry moving; it is built once, with the queue.
    """

    __slots__ = (
        "endpoint_id", "wait_hook", "cond", "pending",
        "senders", "scheduled", "flying", "ready",
    )

    def __init__(self, endpoint_id: str) -> None:
        self.endpoint_id = endpoint_id
        self.wait_hook: Callable[[], None] | None = None
        self.cond = threading.Condition()
        self.pending: list[_Entry] = []
        self.senders = 0
        self.scheduled = False
        self.flying = 0
        self.ready = False

    def idle(self) -> bool:
        """Nothing queued, nothing on the wire, no sweep on its way."""
        return not (
            self.pending or self.senders or self.flying
            or self.scheduled or self.ready
        )


class RequestBatcher:
    """Coalesces same-endpoint invocations into batch wire messages."""

    def __init__(
        self,
        transport: Transport,
        max_batch: int | None = None,
        linger: float | None = None,
        inflight_limit: int | None = None,
        caller: str = "client",
        obs: Any = None,
    ) -> None:
        self._transport = transport
        self._max_batch = batch_max_from_env() if max_batch is None else max_batch
        self._linger = batch_linger_from_env() if linger is None else linger
        self._inflight_limit = (
            batch_inflight_from_env() if inflight_limit is None
            else max(1, inflight_limit)
        )
        self._caller = caller
        self._obs = obs
        # Asynchronous transports drain on their event loop; callers
        # never become senders and never park while a batch flies.
        self._loop_native = bool(getattr(transport, "asynchronous", False))
        # Waiting *on* the loop thread would deadlock: every future of a
        # loop-native batcher carries the transport's guard.
        self._wait_guard = transport.wait_guard if self._loop_native else None
        # Loop drain: queues that went non-empty since the last waiter's
        # sweep (each at most once, see ``_EndpointQueue.ready``), and
        # whether such a sweep is already queued on the loop.
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
        stub's synchronous path; raises whatever the wire raised.
        """
        if self._max_batch <= 1:
            return self._transport.invoke(endpoint_id, request)
        if self._loop_native:
            # The loop drains; this thread only waits.  Waiting *on* the
            # loop thread would deadlock: refuse before queueing.
            self._wait_guard()
        elif self._transport.concurrent:
            return self._combine(endpoint_id, request)
        # The wait hook does the sending: a sweep on the loop, or — on a
        # deterministic transport — a flush, in this thread, of whatever
        # deferred entries are already queued for this endpoint,
        # pipelined together with this one.
        return self._enqueue(endpoint_id, request, None)[0].result()

    def submit(
        self,
        endpoint_id: str,
        request: Request,
        completer: Completer | None = None,
    ) -> RmiFuture:
        """Deferred enqueue (the async path).

        Without a ``completer`` the returned future resolves to this
        entry's raw :class:`Response`.  With one, the sender thread
        calls ``completer(future, response, error)`` instead — exactly
        one of ``response``/``error`` is non-None — and the completer
        owns completing the future (stubs use this to interpret the
        response in place, so one future carries the call end to end).

        The entry is sent when the queue reaches ``max_batch``, when the
        owning stub flushes (drain, membership change), or — via the
        bound wait hook — the moment anyone waits on the future.  The
        submitting thread never parks, so a caller can pipeline a
        window of submissions and gather once; on concurrent transports
        active combiner senders may also sweep deferred entries into
        their batches.
        """
        future, q, full = self._enqueue(endpoint_id, request, completer)
        if full:
            if self._loop_native:
                self._kick_loop(q)
            elif self._transport.concurrent:
                # A *kick*, not a forced flush: at most
                # ``inflight_limit`` senders fly concurrently, and each
                # sweeps every gatherer's entries into shared batches.
                self._kick(q, only_if_full=True)
            else:
                self._flush_queue(q)
        return future

    def flush(self, endpoint_id: str | None = None) -> None:
        """Send every pending entry now (drain protocol / wait hooks).

        Forced: ignores the in-flight window so a draining stub can
        never strand queued calls behind backpressure.
        """
        if endpoint_id is None:
            # The map is copy-on-write: this reference is a snapshot.
            for q in self._queues.values():
                self._flush_queue(q)
            return
        q = self._queues.get(endpoint_id)
        if q is not None:
            self._flush_queue(q)

    def pending_count(self, endpoint_id: str | None = None) -> int:
        if endpoint_id is None:
            queues = list(self._queues.values())
        else:
            q = self._queues.get(endpoint_id)
            queues = [] if q is None else [q]
        total = 0
        for q in queues:
            with q.cond:
                total += len(q.pending)
        return total

    # Everything below is handed the queue *object*: a queue pruned from
    # the map (see ``_queue``) while a submitter still holds it must
    # keep working, so nothing re-looks a queue up by endpoint id.

    def _kick(self, q: _EndpointQueue, only_if_full: bool = False) -> None:
        """Elect this thread as a sender if the window has room.

        What a waiter on a concurrent transport does to get its entry
        moving (its queue's wait hook).  Unlike a flush this respects
        the in-flight window: when every sender slot is busy the caller
        returns immediately and relies on the active senders' drain
        loops, which by invariant sweep the queue before retiring.
        """
        with q.cond:
            if not q.pending or q.senders >= self._inflight_limit:
                return
            if only_if_full and len(q.pending) < self._max_batch:
                return
            q.senders += 1
        self._drain(q, forced=False)

    def _flush_queue(self, q: _EndpointQueue) -> None:
        """Send what ``q`` holds now, past the window.  Also the wait
        hook on a deterministic transport: nobody else will send."""
        if self._loop_native:
            with q.cond:
                if not q.pending:
                    return
            # Not deduped against ``q.scheduled``: a plain sweep may
            # already be queued, but only a forced one is guaranteed to
            # move everything.
            self._transport.schedule(partial(self._loop_drain, q, True))
            return
        with q.cond:
            if not q.pending:
                return
            q.senders += 1  # forced: may exceed the window
        self._drain(q, forced=True)

    # -- combiner (live mode) ----------------------------------------------

    def _combine(self, endpoint_id: str, request: Request) -> Response:
        q = self._queues.get(endpoint_id) or self._queue(endpoint_id)
        future = RmiFuture()
        serve = False
        with q.cond:
            q.pending.append((request, future, None))
            if q.senders < self._inflight_limit:
                q.senders += 1
                serve = True
            elif self._linger > 0:
                q.cond.notify()  # a lingering sender is holding the door
        if serve:
            self._drain(q, forced=False)
        return future.result()

    def _drain(self, q: _EndpointQueue, forced: bool) -> None:
        """Sender loop: fly batches until the queue is empty, then retire.

        The empty-check and the sender-slot release are atomic (under
        ``q.cond``), so an enqueuer can never observe an active sender
        that will not see its entry — pending work always has a sender.
        A sender's own future typically resolves in its first batch; it
        keeps serving whatever accumulated behind it, which is exactly
        the back-to-back pipelining that amortizes per-message cost.
        """
        retired = False
        try:
            while True:
                with q.cond:
                    if (
                        not forced
                        and self._linger > 0
                        and q.pending
                        and len(q.pending) < self._max_batch
                    ):
                        # Hold the door for concurrent enqueuers
                        # (they notify when a sender might be lingering).
                        q.cond.wait(self._linger)
                    batch = q.pending[: self._max_batch]
                    if not batch:
                        q.senders -= 1
                        q.cond.notify_all()
                        retired = True
                        return
                    del q.pending[: len(batch)]
                    inflight = q.senders
                self._deliver(q.endpoint_id, batch, inflight)
        finally:
            if not retired:  # exception unwound past the loop
                with q.cond:
                    q.senders -= 1
                    q.cond.notify_all()

    # -- loop drain (asynchronous mode) ------------------------------------

    def _kick_loop(self, q: _EndpointQueue) -> None:
        """A full queue: schedule one sweep of it on the event loop.

        Deduped via ``q.scheduled``: a burst of submitters costs one
        loop callback, and that sweep takes everything the in-flight
        window allows.
        """
        with q.cond:
            if not q.pending or q.scheduled:
                return
            q.scheduled = True
        self._transport.schedule(partial(self._loop_drain, q))

    def _kick_ready(self) -> None:
        """The wait hook of every loop-native future: schedule one sweep
        of *all* the queues that hold entries no sweep has seen.

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
            with q.cond:
                q.ready = False  # an entry queued from here on re-lists it
            self._loop_drain(q)

    def _loop_drain(self, q: _EndpointQueue, forced: bool = False) -> None:
        """One sweep of one queue, on the event loop: fly batches up to
        the window (``forced``: past it).

        Unlike a combiner sender this never parks — it takes what the
        window allows, submits via the transport's callback API (no hop:
        this *is* the loop thread), and returns to the loop.  A
        completion sweeps again while entries remain, so whatever the
        window held back always has a sweep coming.
        """
        batches: list[tuple[list[_Entry], int]] = []
        with q.cond:
            q.scheduled = False  # whichever sweep this is, it serves a kick
            while q.pending and (forced or q.flying < self._inflight_limit):
                batch = q.pending[: self._max_batch]
                del q.pending[: len(batch)]
                q.flying += 1
                batches.append((batch, q.flying))
        for batch, inflight in batches:
            self._deliver_loop(q, batch, inflight)

    def _deliver_loop(
        self, q: _EndpointQueue, batch: list[_Entry], inflight: int
    ) -> None:
        """Fly one batch via the callback API; settle on the loop."""
        endpoint_id = q.endpoint_id
        self._note_batch(endpoint_id, len(batch), inflight)

        def on_done(result, error: BaseException | None) -> None:
            # Runs on the event loop.  Completers must not block here;
            # stubs offload anything that re-dispatches synchronously.
            with q.cond:
                q.flying -= 1
                repend = bool(q.pending)
            if error is not None:
                self._settle(endpoint_id, batch, None, error)
            elif len(batch) == 1:
                self._settle(endpoint_id, batch, (result,), None)
            else:
                self._settle(endpoint_id, batch, result.entries, None)
            if repend:
                self._loop_drain(q)

        if len(batch) == 1:
            # A singleton is wire-identical to the unbatched path.
            self._transport.submit(endpoint_id, batch[0][0], on_done)
        else:
            requests = tuple(request for request, _, _ in batch)
            self._transport.submit_batch(
                endpoint_id,
                BatchRequest(entries=requests, caller=self._caller),
                on_done,
            )

    # -- the wire ----------------------------------------------------------

    def _deliver(
        self,
        endpoint_id: str,
        batch: list[_Entry],
        inflight: int,
    ) -> None:
        self._note_batch(endpoint_id, len(batch), inflight)
        try:
            if len(batch) == 1:
                # A singleton is wire-identical to the unbatched path.
                responses: tuple[Response, ...] = (
                    self._transport.invoke(endpoint_id, batch[0][0]),
                )
            else:
                requests = tuple(request for request, _, _ in batch)
                responses = self._transport.invoke_batch(
                    endpoint_id,
                    BatchRequest(entries=requests, caller=self._caller),
                ).entries
        except BaseException as exc:  # noqa: BLE001 - relayed per entry
            self._settle(endpoint_id, batch, None, exc)
            return
        self._settle(endpoint_id, batch, responses, None)

    def _settle(
        self,
        endpoint_id: str,
        batch: list[_Entry],
        responses: "tuple[Response, ...] | None",
        error: BaseException | None,
    ) -> None:
        """Complete every entry of one delivered (or failed) batch.

        Per-call semantics live here, shared by the sender-thread and
        loop-drain paths: a whole-batch failure (drop, dead endpoint,
        timeout) fails every entry identically so each logical call
        re-enters its own retry loop; a shape mismatch is a wire-protocol
        error for all; an ``unresolved`` entry becomes the ConnectError
        the unbatched resolve path would have raised.
        """
        if error is not None:
            for _, future, completer in batch:
                self._resolve(future, completer, None, error)
            return
        if len(responses) != len(batch):
            mismatch = RemoteError(
                f"batch reply shape mismatch: {len(batch)} entries, "
                f"{len(responses)} responses"
            )
            for _, future, completer in batch:
                self._resolve(future, completer, None, mismatch)
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
                if self._loop_native:
                    q.wait_hook = self._kick_ready
                elif self._transport.concurrent:
                    q.wait_hook = partial(self._kick, q)
                else:
                    q.wait_hook = partial(self._flush_queue, q)
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
        if self._loop_native:
            future.bind_wait_guard(self._wait_guard)
        with q.cond:
            q.pending.append((request, future, completer))
            full = len(q.pending) >= self._max_batch
            if self._loop_native:
                if not q.ready:
                    q.ready = True
                    self._ready.append(q)
            elif self._linger > 0:
                q.cond.notify()  # a lingering sender may be waiting for us
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
