"""Leased read-through cache over :class:`HyperStore`, watch-invalidated.

Every coordination read in the elasticity loop (membership epoch, shard
maps, elastic fields) used to be a store round-trip per call.  The
:class:`WatchCache` makes those reads local:

- **Watch mode** (the store is in-process): each cached key carries a
  watch subscription; pushed ``put``/``delete`` events update the entry
  in version order, so a hit is exact — zero store reads steady-state.
- **Lease mode** (foreign runtime that only sees the store, or a watch
  stream degraded by a node failure/queue overflow): entries stay fresh
  for ``lease_ms`` (``DEFAULT_LEASE_MS``) and are re-read after, bounding staleness
  by the lease instead of paying a read per call.

Correctness against racing writers rests on two rules.  The watch is
attached *before* the read-through ``get_versioned``, so no event can
fall between "read" and "subscribed"; and every install compares
:class:`VersionedValue` versions (monotonic per key, even across
delete/recreate) so a late-arriving stale event or read result can never
clobber a newer value.

On :class:`StoreUnavailableError` the cache serves the last-known value
(stale-serve) — the same contract the stub's epoch fallback has always
had — and the ``error`` watch event fired by ``fail_node`` marks entries
degraded so they re-validate once the node recovers.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.concurrency import StripedCounter
from repro.errors import KeyNotFoundError, StoreUnavailableError
from repro.kvstore.watch import DELETE, PUT, WatchEvent

_MISSING = object()

DEFAULT_LEASE_MS = 50.0


class _Entry:
    """One cached key: value + store version + freshness bookkeeping."""

    __slots__ = ("value", "version", "present", "deadline", "watched", "degraded")

    def __init__(
        self,
        value: Any,
        version: int,
        present: bool,
        deadline: float,
        watched: bool,
    ) -> None:
        self.value = value
        self.version = version
        self.present = present
        self.deadline = deadline
        self.watched = watched
        self.degraded = False


class WatchCache:
    """Per-process read-through cache keyed by ``VersionedValue.version``.

    ``watch=True`` (default) attaches a per-key watch when the store
    supports it; pass ``watch=False`` for a runtime that reaches the
    store remotely and can only lease.  ``clock`` is injectable so the
    simulation kernel's virtual time drives lease expiry
    deterministically.
    """

    def __init__(
        self,
        store: Any,
        *,
        lease_ms: float = DEFAULT_LEASE_MS,
        clock: Callable[[], float] | None = None,
        watch: bool = True,
        obs: Any = None,
        name: str = "store",
    ) -> None:
        if not lease_ms >= 0:
            raise ValueError(f"lease_ms must be >= 0, got {lease_ms!r}")
        self._store = store
        self._lease_s = lease_ms / 1000.0
        self._clock = clock if clock is not None else time.monotonic
        self._watching = watch and hasattr(store, "watch")
        # Accept a MetricsRegistry or an Observability wrapping one.
        self._obs = getattr(obs, "registry", obs)
        self._name = name
        self._entries: dict[str, _Entry] = {}
        self._subs: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._hits = StripedCounter()
        self.misses = 0
        self.stale_served = 0

    # -- read path ----------------------------------------------------------

    def get(self, key: str, default: Any = _MISSING) -> Any:
        """Read ``key`` through the cache.

        A hit on a watched, non-degraded, present entry — the steady
        state of every epoch read — takes no lock and reads no clock:
        pushed events *replace* entries (never edit value or presence in
        place) and ``gap``/``error`` only ever set ``degraded``, so one
        unlocked dict read sees a whole entry, and the first read after
        a degrading event takes the locked path below.  Any other hit
        costs one cache-lock acquisition, a miss one store read.  Raises
        :class:`KeyNotFoundError` for a (confirmed) missing key unless
        ``default`` is given — same contract as :meth:`HyperStore.get`.
        """
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry.watched
            and entry.present
            and not entry.degraded
        ):
            self._hits.increment()
            return entry.value
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._fresh(entry, now):
                self._hits.increment()
                return self._value_of(entry, key, default)
        return self._read_through(key, default, now)

    def get_version(self, key: str) -> int:
        """Last-known store version for ``key`` (0 when never seen)."""
        with self._lock:
            entry = self._entries.get(key)
            return 0 if entry is None else entry.version

    def _read_through(self, key: str, default: Any, now: float) -> Any:
        # Attach the watch BEFORE reading: any write racing with this
        # read lands in our event queue, and version comparison on
        # install resolves which of the two observations is newer.
        self._ensure_watch(key)
        try:
            reader = getattr(self._store, "read_versioned", None)
            if reader is not None:
                present, value, version = reader(key)
            else:
                try:
                    vv = self._store.get_versioned(key)
                    present, value, version = True, vv.value, vv.version
                except KeyNotFoundError:
                    present, value, version = False, None, 0
        except StoreUnavailableError:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    # Stale-serve: the store node is down; the last-known
                    # value beats failing the caller's hot path.
                    self.stale_served += 1
                    return self._value_of(entry, key, default)
            raise
        with self._lock:
            self.misses += 1
            entry = self._entries.get(key)
            if entry is None or version >= entry.version:
                entry = _Entry(
                    value,
                    version,
                    present,
                    now + self._lease_s,
                    key in self._subs,
                )
                self._entries[key] = entry
            return self._value_of(entry, key, default)

    def _fresh(self, entry: _Entry, now: float) -> bool:
        if entry.watched and not entry.degraded:
            return True
        return now < entry.deadline

    @staticmethod
    def _value_of(entry: _Entry, key: str, default: Any) -> Any:
        if entry.present:
            return entry.value
        if default is _MISSING:
            raise KeyNotFoundError(key)
        return default

    # -- write path ---------------------------------------------------------

    def put(self, key: str, value: Any) -> int:
        """Write-through put: the store write happens first (it is the
        source of truth and of the version), then the entry is installed
        so this process reads its own writes without a store round-trip."""
        self._ensure_watch(key)
        version = self._store.put(key, value)
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or version >= entry.version:
                self._entries[key] = _Entry(
                    value, version, True, now + self._lease_s, key in self._subs
                )
        return version

    def update(self, key: str, fn: Callable[[Any], Any], default: Any = None) -> Any:
        """Atomic read-modify-write, delegated to the store (the RMW must
        see the authoritative value).  The local entry is invalidated —
        not guessed at — so the next read observes the store's ordering
        of concurrent updates.  An update does not subscribe: it caches
        nothing, so a watch on a key that is only ever updated (a
        counter) would buy one event delivery per write and no hit.  The
        first :meth:`get` subscribes before it reads, as for any key."""
        new = self._store.update(key, fn, default=default)
        self.invalidate(key)
        return new

    def invalidate(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    # -- watch plumbing -----------------------------------------------------

    def _ensure_watch(self, key: str) -> None:
        if not self._watching or self._closed:
            return
        with self._lock:
            if key in self._subs:
                return
        # Register outside the cache lock: the hub has its own lock and
        # delivery callbacks take ours.
        sub = self._store.watch(key, self._on_event)
        with self._lock:
            if self._closed or key in self._subs:
                stale = sub
            else:
                self._subs[key] = sub
                stale = None
        if stale is not None:
            stale.cancel()

    def _on_event(self, event: WatchEvent) -> None:
        now = self._clock()
        with self._lock:
            entry = self._entries.get(event.key)
            if event.kind == PUT or event.kind == DELETE:
                if entry is not None and event.version < entry.version:
                    return  # late event older than what we already hold
                self._entries[event.key] = _Entry(
                    event.value,
                    event.version,
                    event.kind == PUT,
                    now + self._lease_s,
                    True,
                )
            else:
                # error/gap: the push stream can no longer be trusted;
                # degrade to lease semantics until a read re-validates.
                if entry is not None:
                    entry.degraded = True
                    entry.deadline = now  # expire immediately

    # -- lifecycle / stats --------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
            subs = list(self._subs.values())
            self._subs.clear()
            self._entries.clear()
        for sub in subs:
            sub.cancel()

    def stats(self) -> dict[str, int]:
        hits = self._hits.value()
        with self._lock:
            return {
                "hits": hits,
                "misses": self.misses,
                "stale_served": self.stale_served,
                "entries": len(self._entries),
                "watched_keys": len(self._subs),
            }

    def publish_gauges(self) -> None:
        """Export hit/miss/stale-serve gauges to the obs registry (called
        at snapshot points, not per-operation, to keep the hit path free
        of registry work)."""
        obs = self._obs
        if obs is None:
            return
        hits = self._hits.value()
        with self._lock:
            misses, stale = self.misses, self.stale_served
        total = hits + misses
        obs.gauge(f"kvstore.cache.{self._name}.hits").set(hits)
        obs.gauge(f"kvstore.cache.{self._name}.misses").set(misses)
        obs.gauge(f"kvstore.cache.{self._name}.stale_served").set(stale)
        obs.gauge(f"kvstore.cache.{self._name}.hit_rate").set(
            hits / total if total else 0.0
        )
