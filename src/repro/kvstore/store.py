"""The partitioned, strongly consistent in-memory store.

Semantics mirror what ElasticRMI needs from HyperDex (paper section 4.1):

- per-key linearizability: every get/put/cas on one key is serialized by
  the stripe lock that owns the key within its partition — lock striping,
  so concurrent operations on *different* keys of the same partition
  never contend;
- versioned entries: each successful write bumps a monotonic version,
  giving CAS a sound foundation;
- durability equals Java RMI's (state lives in RAM; a store-node failure
  surfaces as :class:`StoreUnavailableError`, never silent loss of the
  consistency contract);
- searchable secondary attributes: dict-valued entries can be queried by
  attribute predicates (HyperDex's signature feature);
- elastic growth: nodes can be added, migrating only the keys whose arcs
  moved.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import (
    CASMismatchError,
    KeyNotFoundError,
    StoreUnavailableError,
)
from repro.kvstore.ring import HashRing
from repro.kvstore.watch import WatchHub, WatchSubscription

_MISSING = object()

# Key-layout separators: "PingPool$epoch", "user:42", "jobs/7" all open a
# namespace with their first separator.  The prefix index buckets keys by
# the namespace token so prefix scans touch only the matching buckets.
_SEPARATORS = frozenset("$:/")

# Keys whose partition the store remembers.  A store that touches more
# distinct keys than this starts its memo over instead of growing it.
PLACEMENT_MEMO = 1 << 14


def key_token(key: str) -> str:
    """The key's namespace token: everything up to and *including* the
    first separator (``$``, ``:`` or ``/``), or the whole key when it has
    none.  Every key in a bucket shares its token as a prefix, which is
    what lets :meth:`HyperStore.keys` bound a prefix scan to buckets
    instead of walking the partition."""
    for i, ch in enumerate(key):
        if ch in _SEPARATORS:
            return key[: i + 1]
    return key


@dataclass(slots=True)
class VersionedValue:
    """A stored value plus its monotonically increasing write version."""

    value: Any
    version: int


class Partition:
    """One store node's shard: a dict guarded by striped reentrant locks.

    Keys hash to one of ``stripes`` locks, so per-key operations on
    different keys proceed in parallel while same-key operations stay
    linearizable.  Operation counts are kept per stripe (each mutated
    only under its own lock) and summed on read, so accounting never
    adds cross-stripe contention.
    """

    def __init__(self, node: str, stripes: int = 16) -> None:
        if stripes < 1 or stripes & (stripes - 1):
            raise ValueError(f"stripes must be a power of two: {stripes}")
        self.node = node
        self.data: dict[str, VersionedValue] = {}
        # Last version a deleted key held (plus one for the delete event
        # itself): recreating the key resumes from here, keeping per-key
        # versions monotonic across delete/recreate so watch subscribers
        # and CAS callers can order events by version alone.
        self.tombstones: dict[str, int] = {}
        self.alive = True
        self._mask = stripes - 1
        self._stripes = [threading.RLock() for _ in range(stripes)]
        self._op_counts = [0] * stripes
        # Prefix index: namespace token -> the partition's keys opening
        # with it.  Spans stripes, so it has its own lock; it is touched
        # only on key *creation/removal* (and migration), never on the
        # read/overwrite hot path.
        self.buckets: dict[str, set[str]] = {}
        self.index_lock = threading.Lock()

    def stripe_of(self, key: str) -> int:
        return hash(key) & self._mask

    def lock_for(self, key: str) -> threading.RLock:
        return self._stripes[self.stripe_of(key)]

    def index_add(self, key: str) -> None:
        with self.index_lock:
            self.buckets.setdefault(key_token(key), set()).add(key)

    def index_discard(self, key: str) -> None:
        token = key_token(key)
        with self.index_lock:
            bucket = self.buckets.get(token)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self.buckets[token]

    @property
    def op_count(self) -> int:
        return sum(self._op_counts)

    def __len__(self) -> int:
        return len(self.data)


class HyperStore:
    """Consistent-hash partitioned KV store with per-key linearizability.

    ``on_op`` (optional) is called as ``on_op(op_name, key)`` after every
    operation — the hook the simulation experiments and hot-key statistics
    plug into without the store knowing about either.
    """

    def __init__(
        self,
        nodes: int = 1,
        vnodes: int = 64,
        track_hot_keys: bool = False,
        on_op: Callable[[str, str], None] | None = None,
        stripes_per_partition: int = 16,
    ) -> None:
        if nodes < 1:
            raise ValueError(f"store needs at least one node: {nodes}")
        self._ring = HashRing(vnodes=vnodes)
        self._partitions: dict[str, Partition] = {}
        # Key -> owning partition, so an op hashes its key onto the ring
        # once per key rather than once per op.  ``add_node`` replaces
        # the dict (never edits it) once the ring holds the new node.
        self._placement: dict[str, Partition] = {}
        self._membership_lock = threading.RLock()
        self._stripes = stripes_per_partition
        self._on_op = on_op
        self._track_hot = track_hot_keys
        self._key_hits: dict[str, int] = {}
        self._hot_lock = threading.Lock()
        # Scan accounting for the bounded-prefix-scan benchmark: how
        # many candidate keys scans have examined (scans are rare, so a
        # plain lock-guarded counter is fine here).
        self._keys_visited = 0
        self._scan_lock = threading.Lock()
        # Push-based change notifications.  The hub is always present;
        # mutations check its (lock-free) ``active`` flag, so a store
        # nobody watches pays a single branch per write.
        self._hub = WatchHub()
        for i in range(nodes):
            self._add_partition(f"store-{i}")

    # -- membership -----------------------------------------------------------

    def _add_partition(self, node: str) -> None:
        self._partitions[node] = Partition(node, stripes=self._stripes)
        self._ring.add_node(node)

    def add_node(self) -> str:
        """Grow the store by one node, migrating displaced keys.

        Returns the new node's name.  Mirrors "ElasticRMI may add
        additional nodes to HyperDex as necessary" (section 4.2).
        """
        with self._membership_lock:
            node = f"store-{len(self._partitions)}"
            old_owner = {
                key: part.node
                for part in self._partitions.values()
                for key in part.data
            }
            tombstone_owner = {
                key: part.node
                for part in self._partitions.values()
                for key in part.tombstones
            }
            self._add_partition(node)
            # Placements memoised against the old ring are wrong for the
            # keys that move; start over now that the ring has the node.
            self._placement = {}
            for key, owner in old_owner.items():
                new_owner = self._ring.owner(key)
                if new_owner != owner:
                    src = self._partitions[owner]
                    dst = self._partitions[new_owner]
                    # Stripe locks only; per-key ops hold exactly one
                    # lock, and concurrent migrations are serialized by
                    # the membership lock, so this pair cannot deadlock.
                    with src.lock_for(key), dst.lock_for(key):
                        entry = src.data.pop(key, None)
                        if entry is not None:
                            dst.data[key] = entry
                            src.index_discard(key)
                            dst.index_add(key)
            # Tombstoned versions follow their keys so a recreate on the
            # new owner still resumes the version sequence.
            for key, owner in tombstone_owner.items():
                new_owner = self._ring.owner(key)
                if new_owner != owner:
                    src = self._partitions[owner]
                    dst = self._partitions[new_owner]
                    with src.lock_for(key), dst.lock_for(key):
                        version = src.tombstones.pop(key, None)
                        if version is not None:
                            dst.tombstones[key] = version
            return node

    def node_count(self) -> int:
        return len(self._partitions)

    def node_names(self) -> list[str]:
        return list(self._partitions)

    def partition_sizes(self) -> dict[str, int]:
        return {name: len(p) for name, p in self._partitions.items()}

    def owner_node(self, key: str) -> str:
        """Name of the node whose partition owns ``key``.

        Pure ring lookup — works whether or not the owner is alive, so
        fault scripts can pick a victim partition *relative to* the keys
        they must keep reachable.
        """
        return self._ring.owner(key)

    def failed_nodes(self) -> list[str]:
        return [name for name, p in self._partitions.items() if not p.alive]

    # -- failure injection ------------------------------------------------------

    def fail_node(self, node: str) -> None:
        """Make one store node unavailable.  Per the paper's fault model,
        operations on its keys then *propagate* StoreUnavailableError.

        Watch subscribers whose keys the node owns receive an ``error``
        event so they can fall back to direct (leased) reads instead of
        trusting a silent stream."""
        self._partition_by_name(node).alive = False
        if self._hub.active:
            self._hub.broadcast_error(
                StoreUnavailableError(f"store node {node} is down"),
                owner=self._ring.owner,
                node=node,
            )

    def recover_node(self, node: str) -> None:
        """Bring a failed node back.  Subscribers get an ``error`` event
        carrying ``None`` semantics via :class:`StoreUnavailableError`'s
        recovery message: anything cached across the outage must be
        re-validated against the store before being trusted again."""
        self._partition_by_name(node).alive = True
        if self._hub.active:
            self._hub.broadcast_error(
                StoreUnavailableError(f"store node {node} recovered"),
                owner=self._ring.owner,
                node=node,
            )

    # -- core operations ----------------------------------------------------------

    def get(self, key: str, default: Any = _MISSING) -> Any:
        """Read a key; raises :class:`KeyNotFoundError` when absent
        unless ``default`` is given."""
        part, stripe = self._locate(key)
        with part._stripes[stripe]:
            self._account("get", key, part, stripe)
            entry = part.data.get(key)
            if entry is None:
                if default is _MISSING:
                    raise KeyNotFoundError(key)
                return default
            return entry.value

    def get_versioned(self, key: str) -> VersionedValue:
        """Read a key together with its write version."""
        part, stripe = self._locate(key)
        with part._stripes[stripe]:
            self._account("get", key, part, stripe)
            entry = part.data.get(key)
            if entry is None:
                raise KeyNotFoundError(key)
            return VersionedValue(entry.value, entry.version)

    def read_versioned(self, key: str) -> tuple[bool, Any, int]:
        """Read ``(present, value, version)`` where an absent key still
        reports a meaningful version: the tombstone left by its last
        delete (0 when never written).  This is what lets a cache order
        an "absent" observation against racing put/delete events."""
        part, stripe = self._locate(key)
        with part._stripes[stripe]:
            self._account("get", key, part, stripe)
            entry = part.data.get(key)
            if entry is None:
                return (False, None, part.tombstones.get(key, 0))
            return (True, entry.value, entry.version)

    def put(self, key: str, value: Any) -> int:
        """Write ``value``; returns the new version."""
        part, stripe = self._locate(key)
        with part._stripes[stripe]:
            self._account("put", key, part, stripe)
            entry = part.data.get(key)
            version = self._next_version(part, key, entry)
            part.data[key] = VersionedValue(value, version)
            if entry is None:
                part.index_add(key)
            pending = self._notify(key, "put", value, version)
        self._deliver(pending)
        return version

    def put_many(self, items: dict[str, Any]) -> dict[str, int]:
        """Write several keys in one call; returns ``key -> new version``.

        Each key is written under its own stripe lock (no cross-key
        atomicity — same contract as issuing the puts individually), but
        watch delivery for the whole batch is coalesced after the last
        lock is released, so subscribers that watch several of the keys
        see the batch back-to-back instead of interleaved with their own
        redeliveries.
        """
        versions: dict[str, int] = {}
        kicks: list[WatchSubscription] = []
        for key, value in items.items():
            part, stripe = self._locate(key)
            with part._stripes[stripe]:
                self._account("put", key, part, stripe)
                entry = part.data.get(key)
                version = self._next_version(part, key, entry)
                part.data[key] = VersionedValue(value, version)
                if entry is None:
                    part.index_add(key)
                pending = self._notify(key, "put", value, version)
            if pending:
                kicks.extend(pending)
            versions[key] = version
        if kicks:
            self._hub.kick(kicks)
        return versions

    def cas(self, key: str, expected: Any, value: Any) -> int:
        """Compare-and-swap on the *value*; raises on mismatch.

        A missing key matches ``expected is None`` (create-if-absent).
        """
        part, stripe = self._locate(key)
        with part._stripes[stripe]:
            self._account("cas", key, part, stripe)
            entry = part.data.get(key)
            current = None if entry is None else entry.value
            if current != expected:
                raise CASMismatchError(
                    f"cas({key!r}): expected {expected!r}, found {current!r}"
                )
            version = self._next_version(part, key, entry)
            part.data[key] = VersionedValue(value, version)
            if entry is None:
                part.index_add(key)
            pending = self._notify(key, "put", value, version)
        self._deliver(pending)
        return version

    def incr(self, key: str, delta: int = 1) -> int:
        """Atomic integer add; missing keys start at zero.  Returns the
        post-increment value."""
        part, stripe = self._locate(key)
        with part._stripes[stripe]:
            self._account("incr", key, part, stripe)
            entry = part.data.get(key)
            current = 0 if entry is None else entry.value
            if not isinstance(current, int):
                raise TypeError(f"incr on non-integer key {key!r}: {current!r}")
            version = self._next_version(part, key, entry)
            part.data[key] = VersionedValue(current + delta, version)
            if entry is None:
                part.index_add(key)
            pending = self._notify(key, "put", current + delta, version)
        self._deliver(pending)
        return current + delta

    def delete(self, key: str) -> bool:
        """Remove ``key``; True if it existed."""
        part, stripe = self._locate(key)
        pending = None
        with part._stripes[stripe]:
            self._account("delete", key, part, stripe)
            entry = part.data.pop(key, None)
            existed = entry is not None
            if existed:
                part.index_discard(key)
                # The delete itself consumes a version so a subsequent
                # recreate is ordered strictly after it.
                version = entry.version + 1
                part.tombstones[key] = version
                pending = self._notify(key, "delete", None, version)
        self._deliver(pending)
        return existed

    def exists(self, key: str) -> bool:
        part, stripe = self._locate(key)
        with part._stripes[stripe]:
            self._account("get", key, part, stripe)
            return key in part.data

    def update(self, key: str, fn: Callable[[Any], Any], default: Any = None) -> Any:
        """Atomic read-modify-write under the partition lock.

        ``fn`` receives the current value (or ``default`` when absent) and
        returns the new value, which is stored and returned.
        """
        part, stripe = self._locate(key)
        with part._stripes[stripe]:
            self._account("update", key, part, stripe)
            entry = part.data.get(key)
            current = default if entry is None else entry.value
            new = fn(current)
            version = self._next_version(part, key, entry)
            part.data[key] = VersionedValue(new, version)
            if entry is None:
                part.index_add(key)
            pending = self._notify(key, "put", new, version)
        self._deliver(pending)
        return new

    # -- scans and search -----------------------------------------------------------

    def keys(self, prefix: str = "") -> Iterator[str]:
        """All keys (optionally filtered by prefix), across partitions.

        A non-empty prefix is served from the per-partition namespace
        index: only buckets whose token is prefix-compatible with the
        query are visited, so ``keys("PingPool$")`` in a store carrying
        a million session keys walks the handful of ``PingPool$…``
        entries, not the whole partition.  Completeness holds because a
        matching key's token and the query prefix are both prefixes of
        that key, hence one is always a prefix of the other.

        The candidate set is snapshotted eagerly — at call time, under
        each partition's index lock — so the returned iterator never
        races with concurrent ``put``/``delete``: callers see the keys
        that existed at the call, not a live view that can skip or
        duplicate entries while they iterate.
        """
        snapshot: list[str] = []
        if not prefix:
            for part in list(self._partitions.values()):
                self._check_alive(part)
                # list(dict) is a single C-level operation under the GIL,
                # so this snapshot is safe against concurrent striped
                # writers without taking (and stalling) every stripe lock.
                keys = list(part.data)
                self._note_scan(len(keys))
                snapshot.extend(keys)
            return iter(snapshot)
        for part in list(self._partitions.values()):
            self._check_alive(part)
            with part.index_lock:
                candidates = [
                    key
                    for token, bucket in part.buckets.items()
                    if token.startswith(prefix) or prefix.startswith(token)
                    for key in bucket
                ]
            self._note_scan(len(candidates))
            snapshot.extend(k for k in candidates if k.startswith(prefix))
        return iter(snapshot)

    def search(self, prefix: str, **predicates: Any) -> list[tuple[str, Any]]:
        """HyperDex-style secondary-attribute search over dict values.

        Returns ``(key, value)`` pairs under ``prefix`` whose dict value
        satisfies every ``attribute=expected`` predicate.  Callables are
        treated as one-argument predicates over the attribute value.
        """
        hits: list[tuple[str, Any]] = []
        for key in self.keys(prefix):
            try:
                value = self.get(key)
            except KeyNotFoundError:
                continue  # concurrently deleted
            if not isinstance(value, dict):
                continue
            ok = True
            for attr, expected in predicates.items():
                if attr not in value:
                    ok = False
                    break
                actual = value[attr]
                if callable(expected):
                    if not expected(actual):
                        ok = False
                        break
                elif actual != expected:
                    ok = False
                    break
            if ok:
                hits.append((key, value))
        return hits

    # -- watches ------------------------------------------------------------------

    def watch(
        self, key: str, callback: Callable[[Any], None]
    ) -> WatchSubscription:
        """Subscribe to changes of ``key``.  ``callback`` receives a
        :class:`~repro.kvstore.watch.WatchEvent` per mutation, in version
        order, strictly after the mutating stripe lock is released."""
        return self._hub.watch(key, callback)

    def watch_prefix(
        self, prefix: str, callback: Callable[[Any], None]
    ) -> WatchSubscription:
        """Subscribe to changes of every key starting with ``prefix``."""
        return self._hub.watch_prefix(prefix, callback)

    def watch_stats(self) -> dict[str, int]:
        return {"subscriptions": self._hub.subscription_count()}

    def set_obs(self, obs: Any) -> None:
        """Wire an observability registry: watch delivery counters land
        on ``kvstore.watch.delivered`` / ``kvstore.watch.dropped``."""
        self._hub.set_obs(obs)

    # -- statistics ---------------------------------------------------------------

    def hot_keys(self, top_n: int = 10) -> list[tuple[str, int]]:
        """Most frequently accessed keys (requires ``track_hot_keys``)."""
        ranked = sorted(self._key_hits.items(), key=lambda kv: -kv[1])
        return ranked[:top_n]

    def total_ops(self) -> int:
        return sum(p.op_count for p in self._partitions.values())

    def keys_visited_by_scans(self) -> int:
        """Total candidate keys examined by prefix scans since creation.

        The bounded-scan micro-benchmark asserts this grows by the
        bucket size, not the partition size, per prefixed scan.
        """
        with self._scan_lock:
            return self._keys_visited

    def _note_scan(self, visited: int) -> None:
        with self._scan_lock:
            self._keys_visited += visited

    # -- internals -------------------------------------------------------------------

    def _locate(self, key: str) -> tuple[Partition, int]:
        """The live partition owning ``key`` and the key's stripe in it.

        The memo is read once per lookup: a lookup that races
        ``add_node``'s swap records its placement only in the dict the
        swap discarded.  The alive check runs on every op.
        """
        placement = self._placement
        part = placement.get(key)
        if part is None:
            part = self._partitions[self._ring.owner(key)]
            if len(placement) >= PLACEMENT_MEMO:
                placement.clear()
            placement[key] = part
        if not part.alive:
            raise StoreUnavailableError(f"store node {part.node} is down")
        return part, hash(key) & part._mask

    def _partition_by_name(self, node: str) -> Partition:
        if node not in self._partitions:
            raise ValueError(f"unknown store node: {node}")
        return self._partitions[node]

    def _check_alive(self, part: Partition) -> None:
        if not part.alive:
            raise StoreUnavailableError(f"store node {part.node} is down")

    @staticmethod
    def _next_version(
        part: Partition, key: str, entry: VersionedValue | None
    ) -> int:
        """Next write version for ``key`` (stripe lock held): continue
        from the live entry, or from the tombstone left by a delete."""
        if entry is not None:
            return entry.version + 1
        return part.tombstones.pop(key, 0) + 1

    def _notify(
        self, key: str, kind: str, value: Any, version: int
    ) -> list[WatchSubscription] | None:
        """Enqueue a watch event (stripe lock held — this is what makes
        event order equal version order).  Returns subscriptions this
        thread must drain once the lock is released."""
        hub = self._hub
        if not hub.active:
            return None
        return hub.enqueue(key, kind, value, version)

    def _deliver(self, pending: list[WatchSubscription] | None) -> None:
        """Run watch callbacks for ``pending``.  Callers must hold no
        stripe lock here — subscribers may re-enter the store."""
        if pending:
            self._hub.kick(pending)

    def _account(self, op: str, key: str, part: Partition, stripe: int) -> None:
        # Called with the key's stripe lock held: the stripe's cell has a
        # single writer at a time, so the bare increment is safe.
        part._op_counts[stripe] += 1
        if self._track_hot:
            with self._hot_lock:
                self._key_hits[key] = self._key_hits.get(key, 0) + 1
        if self._on_op is not None:
            self._on_op(op, key)
