"""Push-based change notifications for :class:`HyperStore`.

The store's elasticity loop (Decider -> sentinel -> epoch -> stub) is
coordinated entirely through store keys, so every client used to poll
those keys on its hot path.  Watches invert that: a mutation enqueues a
versioned :class:`WatchEvent` for every matching subscription *while the
stripe lock is still held* (which is what guarantees per-key version
order), and delivery runs strictly *after* the lock is released, so a
subscriber callback can never deadlock against — or stall — the store.

Delivery uses a combiner: whichever writer thread flips a subscription's
queue from idle to non-empty becomes responsible for draining it, and
concurrent writers just append.  Queues are bounded (``WatchHub(depth=)``);
on overflow the oldest event is dropped and a ``gap`` event is delivered
in its place so caches know to re-read instead of trusting a hole in the
version stream.  ``fail_node``/``recover_node`` fan out ``error`` events
so subscribers fall back to direct (leased) reads cleanly.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

DEFAULT_WATCH_QUEUE = 1024

#: Event kinds, in the order a subscriber should be prepared to see them.
PUT = "put"
DELETE = "delete"
ERROR = "error"
GAP = "gap"


@dataclass(frozen=True)
class WatchEvent:
    """One versioned store change as seen by a subscriber.

    ``kind`` is ``put``/``delete`` for ordinary mutations (``version`` is
    the key's new write version — monotonic even across delete/recreate),
    ``error`` when the owning store node failed or recovered (subscribers
    should fall back to direct reads), and ``gap`` when the subscription's
    bounded queue overflowed and events were lost (subscribers must
    re-read rather than trust their last-seen version).
    """

    key: str
    kind: str
    value: Any = None
    version: int = 0
    error: BaseException | None = field(default=None, compare=False)


class WatchSubscription:
    """One registered callback plus its bounded, ordered event queue.

    ``enqueue`` may be called with a stripe lock held; ``drain`` never
    is.  The ``_draining`` flag implements the combiner: exactly one
    thread delivers at a time, so callbacks observe events in enqueue
    (= version) order without a dedicated delivery thread.
    """

    __slots__ = (
        "_hub",
        "callback",
        "key",
        "prefix",
        "_depth",
        "_queue",
        "_lock",
        "_delivering",
        "_draining",
        "_gap",
        "cancelled",
        "delivered",
        "dropped",
        "callback_errors",
    )

    def __init__(
        self,
        hub: "WatchHub",
        callback: Callable[[WatchEvent], None],
        key: str | None = None,
        prefix: str | None = None,
        depth: int = DEFAULT_WATCH_QUEUE,
    ) -> None:
        self._hub = hub
        self.callback = callback
        self.key = key
        self.prefix = prefix
        self._depth = depth
        self._queue: deque[WatchEvent] = deque()
        self._lock = threading.Lock()
        # Held around each callback, so cancel() can wait one out.
        self._delivering = threading.RLock()
        self._draining = False
        self._gap = False
        self.cancelled = False
        self.delivered = 0
        self.dropped = 0
        self.callback_errors = 0

    def matches(self, key: str) -> bool:
        if self.key is not None:
            return key == self.key
        return self.prefix is not None and key.startswith(self.prefix)

    def enqueue(self, event: WatchEvent) -> bool:
        """Append ``event``; True when the caller became the combiner and
        must call :meth:`drain` once it holds no store locks."""
        with self._lock:
            if self.cancelled:
                return False
            if len(self._queue) >= self._depth:
                self._queue.popleft()
                self.dropped += 1
                self._gap = True
                self._hub._count_dropped()
            self._queue.append(event)
            if self._draining:
                return False
            self._draining = True
            return True

    def drain(self) -> None:
        """Deliver queued events in order.  Runs with no store lock held;
        exits once the queue is observed empty under the queue lock."""
        while True:
            with self._lock:
                if self._gap:
                    # The hole precedes everything still queued, so the
                    # gap marker goes out first.
                    self._gap = False
                    event = WatchEvent(self.key or self.prefix or "", GAP)
                elif self._queue:
                    event = self._queue.popleft()
                else:
                    self._draining = False
                    return
                if self.cancelled:
                    self._queue.clear()
                    self._draining = False
                    return
            with self._delivering:
                # Re-checked here: a cancel() that ran since the pop
                # has returned, and its caller expects no more events.
                if self.cancelled:
                    return
                try:
                    self.callback(event)
                except Exception:
                    # A subscriber bug must never break the writer that
                    # happens to be draining on its behalf.
                    self.callback_errors += 1
                else:
                    self.delivered += 1
                    self._hub._count_delivered()

    def cancel(self) -> None:
        """Unregister.  Once this returns the callback is not running on
        another thread and never runs again, so do not cancel while
        holding a lock the callback takes."""
        self._hub._remove(self)
        with self._lock:
            self.cancelled = True
            self._queue.clear()
        with self._delivering:
            pass  # wait out a callback in flight on another thread


class WatchHub:
    """The store-side registry of subscriptions.

    The store checks :attr:`active` (a plain bool, read lock-free) before
    doing any watch work, so an unwatched store pays one branch per
    mutation.  ``enqueue`` runs under the mutating key's stripe lock and
    only appends to per-subscription queues; ``kick`` runs after the lock
    is released and performs the actual callback delivery.

    Routing takes no lock.  Each key's subscriptions, and the prefix
    subscriptions, are immutable tuples: registration and removal build
    a new tuple under the hub lock and publish it with one atomic store
    (a dict item or an attribute), so a writer reads a whole tuple
    whenever it looks.  Subscribe-before-read survives: a read-through
    publishes its subscription and only then takes the key's stripe
    lock to read, so a writer that looked before the publication holds
    that lock and commits first, and every later writer sees it.
    """

    def __init__(self, depth: int = DEFAULT_WATCH_QUEUE) -> None:
        if depth < 1:
            raise ValueError(f"watch queue depth must be >= 1, got {depth!r}")
        self._depth = depth
        self._lock = threading.Lock()
        self._exact: dict[str, tuple[WatchSubscription, ...]] = {}
        self._prefix: tuple[WatchSubscription, ...] = ()
        self._obs: Any = None
        self.active = False

    # -- registration -------------------------------------------------------

    def watch(
        self, key: str, callback: Callable[[WatchEvent], None]
    ) -> WatchSubscription:
        sub = WatchSubscription(self, callback, key=key, depth=self._depth)
        with self._lock:
            self._exact[key] = self._exact.get(key, ()) + (sub,)
            self.active = True
        return sub

    def watch_prefix(
        self, prefix: str, callback: Callable[[WatchEvent], None]
    ) -> WatchSubscription:
        sub = WatchSubscription(self, callback, prefix=prefix, depth=self._depth)
        with self._lock:
            self._prefix += (sub,)
            self.active = True
        return sub

    def _remove(self, sub: WatchSubscription) -> None:
        with self._lock:
            if sub.key is not None:
                rest = tuple(s for s in self._exact.get(sub.key, ()) if s is not sub)
                if rest:
                    self._exact[sub.key] = rest
                else:
                    self._exact.pop(sub.key, None)
            else:
                self._prefix = tuple(s for s in self._prefix if s is not sub)
            self.active = bool(self._exact or self._prefix)

    def subscription_count(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._exact.values()) + len(self._prefix)

    # -- event flow ---------------------------------------------------------

    def subscriptions_for(self, key: str) -> tuple[WatchSubscription, ...]:
        """The subscriptions ``key`` routes to.  Lock-free; allocates
        nothing unless a prefix subscription matches."""
        subs = self._exact.get(key, ())
        prefixed = self._prefix
        if prefixed:
            matched = tuple(
                s for s in prefixed if key.startswith(s.prefix)  # type: ignore[arg-type]
            )
            if matched:
                subs += matched
        return subs

    def enqueue(
        self, key: str, kind: str, value: Any, version: int
    ) -> list[WatchSubscription] | None:
        """Queue an event for every matching subscription.  Safe to call
        with the key's stripe lock held; returns the subscriptions whose
        combiner duty fell to this thread (kick them after unlocking)."""
        subs = self.subscriptions_for(key)
        if not subs:
            return None
        event = WatchEvent(key, kind, value, version)
        kicks = [sub for sub in subs if sub.enqueue(event)]
        return kicks or None

    def kick(self, subs: list[WatchSubscription]) -> None:
        """Drain the given subscriptions.  Must not hold store locks."""
        for sub in subs:
            sub.drain()

    def broadcast_error(
        self,
        error: BaseException,
        owner: Callable[[str], str] | None = None,
        node: str | None = None,
    ) -> None:
        """Fan an ``error`` event out to subscriptions that could be
        affected by ``node`` failing/recovering (all of them when no
        owner function is given — prefix watches always qualify since a
        prefix can span partitions).  Called with no store locks held,
        so delivery happens inline."""
        with self._lock:
            subs = [s for bucket in self._exact.values() for s in bucket]
            subs.extend(self._prefix)
        kicks = []
        for sub in subs:
            if (
                owner is not None
                and node is not None
                and sub.key is not None
                and owner(sub.key) != node
            ):
                continue
            event = WatchEvent(sub.key or sub.prefix or "", ERROR, error=error)
            if sub.enqueue(event):
                kicks.append(sub)
        self.kick(kicks)

    # -- observability ------------------------------------------------------

    def set_obs(self, obs: Any) -> None:
        """Wire a metrics sink — either a ``MetricsRegistry`` or an
        ``Observability`` wrapping one; ``kvstore.watch.delivered`` /
        ``kvstore.watch.dropped`` counters appear on it."""
        self._obs = getattr(obs, "registry", obs)

    def _count_delivered(self) -> None:
        obs = self._obs
        if obs is not None:
            obs.counter("kvstore.watch.delivered").inc()

    def _count_dropped(self) -> None:
        obs = self._obs
        if obs is not None:
            obs.counter("kvstore.watch.dropped").inc()


class AsyncWatchQueue:
    """Bridge watch events onto an asyncio event loop.

    Register :attr:`callback` as the subscription callback (it is safe to
    call from any thread — it trampolines through
    ``loop.call_soon_threadsafe``) and consume events with ``await
    queue.get()`` on the loop.  With a ``maxsize`` the oldest event is
    displaced on overflow and the next delivered event is a ``gap``, so a
    slow consumer degrades exactly like a slow sync subscriber.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop | None = None, maxsize: int = 0
    ) -> None:
        if loop is None:
            from repro.rmi.aio import loop_runtime

            loop = loop_runtime().loop
        self.loop = loop
        self.queue: asyncio.Queue[WatchEvent] = asyncio.Queue(maxsize)
        self.dropped = 0
        self._gap = False

    def callback(self, event: WatchEvent) -> None:
        self.loop.call_soon_threadsafe(self._put, event)

    def _put(self, event: WatchEvent) -> None:
        if self._gap:
            self._gap = False
            self._offer(WatchEvent(event.key, GAP))
        self._offer(event)

    def _offer(self, event: WatchEvent) -> None:
        try:
            self.queue.put_nowait(event)
        except asyncio.QueueFull:
            self.queue.get_nowait()
            self.dropped += 1
            self._gap = True
            self.queue.put_nowait(event)

    async def get(self) -> WatchEvent:
        return await self.queue.get()

    def empty(self) -> bool:
        return self.queue.empty()
