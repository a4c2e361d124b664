"""The elastic coordination service.

Store layout (``dcs/`` prefix):

- ``dcs/zxid`` — the global update sequencer.  Every mutation draws a
  zxid from it, which makes all updates totally ordered (the ordering of
  zxids *is* the order of updates, since each mutation commits its zxid
  atomically with the node record);
- ``dcs/node<path>`` — znode record: data, version, czxid, mzxid,
  ephemeral owner session;
- ``dcs/children<path>`` — sorted child-name list per directory;
- ``dcs/sessions/<id>`` — session record with its ephemeral nodes;
- ``dcs/watches<path>`` — client ids watching the path (one-shot);
- ``dcs/events/<client>`` — per-client ordered event feed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.apps.common import ThroughputScaledService
from repro.core.fields import elastic_field
from repro.errors import CASMismatchError


class NoNodeError(Exception):
    """Path does not exist."""


class NodeExistsError(Exception):
    """Create on a path that already exists."""


class NotEmptyError(Exception):
    """Delete on a node that still has children."""


class BadVersionError(Exception):
    """Conditional update with a stale version."""


class SessionExpiredError(Exception):
    """Operation on a closed or unknown session."""


@dataclass(frozen=True)
class WatchEvent:
    """A change notification delivered through a client's event feed."""

    path: str
    kind: str   # "created" | "changed" | "deleted"
    zxid: int


_session_counter = itertools.count(1)


def _validate_path(path: str) -> None:
    if not path.startswith("/") or (path != "/" and path.endswith("/")):
        raise ValueError(f"invalid path: {path!r}")
    if "//" in path:
        raise ValueError(f"invalid path: {path!r}")


def _parent(path: str) -> str:
    if path == "/":
        raise ValueError("root has no parent")
    head, _, _ = path.rpartition("/")
    return head or "/"


def _name(path: str) -> str:
    return path.rpartition("/")[2]


class CoordinationService(ThroughputScaledService):
    """One member of the elastic DCS pool.

    All state lives in the shared store, so every member serves every
    path; the pool scales with update throughput.
    """

    #: Updates/s one member sustains at QoS; peak A = 75,000 updates/s
    #: needs ~25 members at the target utilization.
    CAPACITY_PER_MEMBER = 3_500.0
    #: Tight headroom: updates are cheap store operations.
    TARGET_UTILIZATION = 0.83

    updates_total = elastic_field(default=0)

    def __init__(self) -> None:
        super().__init__()
        self.set_min_pool_size(2)
        self.set_max_pool_size(32)

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------

    def create(
        self,
        path: str,
        data: object = None,
        ephemeral: bool = False,
        session_id: str | None = None,
    ) -> int:
        """Create a znode; returns its czxid.  The parent must exist
        (except for children of the root).  Ephemeral nodes require a
        live session and may not have children.

        Of concurrent creates of one path exactly one succeeds: the
        record is written create-if-absent under the key's stripe lock.
        A create that loses that race raises :class:`NodeExistsError`
        after drawing its zxid, so a losing create may consume a zxid."""
        _validate_path(path)
        if path == "/":
            raise NodeExistsError("/")
        store = self._store()
        parent = _parent(path)
        if parent != "/" and not store.exists(f"dcs/node{parent}"):
            raise NoNodeError(parent)
        if parent != "/":
            parent_record = store.get(f"dcs/node{parent}")
            if parent_record.get("ephemeral_owner"):
                raise NodeExistsError(
                    f"ephemeral node {parent} cannot have children"
                )
        if ephemeral:
            if session_id is None:
                raise SessionExpiredError("ephemeral create needs a session")
            self._check_session(session_id)
        # The early check spares a zxid in the plain duplicate case; the
        # cas below is what decides a race.
        if store.exists(f"dcs/node{path}"):
            raise NodeExistsError(path)
        zxid = self._next_zxid()
        try:
            store.cas(
                f"dcs/node{path}",
                None,
                {
                    "data": data,
                    "version": 0,
                    "czxid": zxid,
                    "mzxid": zxid,
                    "ephemeral_owner": session_id if ephemeral else None,
                },
            )
        except CASMismatchError:
            raise NodeExistsError(path) from None
        store.update(
            f"dcs/children{parent}",
            lambda names: sorted(set(names or []) | {_name(path)}),
            default=[],
        )
        if ephemeral:
            store.update(
                f"dcs/sessions/{session_id}",
                lambda s: {**s, "ephemerals": sorted(set(s["ephemerals"]) | {path})},
            )
        self._count_update()
        self._fire_watches(path, "created", zxid)
        return zxid

    def create_sequential(
        self,
        prefix: str,
        data: object = None,
        ephemeral: bool = False,
        session_id: str | None = None,
    ) -> str:
        """Create a node at ``prefix`` + a zero-padded, per-parent
        monotonic counter (ZooKeeper's sequential flag) and return the
        actual path created.  The counter never repeats even after
        deletions, which is what election/queue recipes rely on."""
        _validate_path(prefix)
        parent = _parent(prefix)
        seq = self._store().incr(f"dcs/seq{parent}")
        path = f"{prefix}{seq:010d}"
        self.create(path, data, ephemeral=ephemeral, session_id=session_id)
        return path

    def exists(self, path: str) -> bool:
        _validate_path(path)
        return path == "/" or self._store().exists(f"dcs/node{path}")

    def get(self, path: str) -> dict:
        """The znode record: data, version, czxid, mzxid."""
        _validate_path(path)
        record = self._store().get(f"dcs/node{path}", default=None)
        if record is None:
            raise NoNodeError(path)
        return dict(record)

    def set_data(self, path: str, data: object, version: int = -1) -> int:
        """Update a znode's data; ``version`` of -1 skips the check.
        Returns the new mzxid."""
        _validate_path(path)
        store = self._store()
        key = f"dcs/node{path}"
        zxid = self._next_zxid()

        def mutate(record):
            # Raising here aborts the store.update with nothing written —
            # a rejected conditional update must not create or touch the
            # record (not even its version).
            if record is None:
                raise NoNodeError(path)
            if version != -1 and record["version"] != version:
                raise BadVersionError(
                    f"{path}: expected v{version}, is v{record['version']}"
                )
            return {
                **record,
                "data": data,
                "version": record["version"] + 1,
                "mzxid": zxid,
            }

        store.update(key, mutate, default=None)
        self._count_update()
        self._fire_watches(path, "changed", zxid)
        return zxid

    def delete(self, path: str, version: int = -1) -> None:
        """Delete a leaf znode (conditional on ``version`` unless -1)."""
        _validate_path(path)
        store = self._store()
        # Check-then-act, unlike create: the version and emptiness
        # checks and the delete below are separate store ops, so a
        # racing set_data or child create can slip between them.  A
        # racing delete cannot win twice: the store delete's result
        # decides, and the loser raises before it draws a zxid.
        record = store.get(f"dcs/node{path}", default=None)
        if record is None:
            raise NoNodeError(path)
        if version != -1 and record["version"] != version:
            raise BadVersionError(
                f"{path}: expected v{version}, is v{record['version']}"
            )
        if store.get(f"dcs/children{path}", default=[]):
            raise NotEmptyError(path)
        if not store.delete(f"dcs/node{path}"):
            raise NoNodeError(path)
        zxid = self._next_zxid()
        store.delete(f"dcs/children{path}")
        parent = _parent(path)
        store.update(
            f"dcs/children{parent}",
            lambda names: [n for n in (names or []) if n != _name(path)],
            default=[],
        )
        owner = record.get("ephemeral_owner")
        if owner:
            store.update(
                f"dcs/sessions/{owner}",
                lambda s: {
                    **s,
                    "ephemerals": [e for e in s["ephemerals"] if e != path],
                }
                if s
                else s,
                default=None,
            )
        self._count_update()
        self._fire_watches(path, "deleted", zxid)

    def get_children(self, path: str) -> list[str]:
        _validate_path(path)
        if path != "/" and not self.exists(path):
            raise NoNodeError(path)
        return list(self._store().get(f"dcs/children{path}", default=[]))

    # ------------------------------------------------------------------
    # sessions and ephemeral nodes
    # ------------------------------------------------------------------

    def create_session(self) -> str:
        session_id = f"sess-{next(_session_counter)}"
        self._store().put(
            f"dcs/sessions/{session_id}",
            {"id": session_id, "ephemerals": [], "open": True},
        )
        return session_id

    def close_session(self, session_id: str) -> list[str]:
        """Close a session, deleting its ephemeral nodes.  Returns the
        paths removed."""
        store = self._store()
        record = store.get(f"dcs/sessions/{session_id}", default=None)
        if record is None or not record["open"]:
            raise SessionExpiredError(session_id)
        removed = []
        for path in sorted(record["ephemerals"], key=len, reverse=True):
            try:
                self.delete(path)
                removed.append(path)
            except (NoNodeError, NotEmptyError):
                continue
        store.put(
            f"dcs/sessions/{session_id}",
            {**record, "ephemerals": [], "open": False},
        )
        return removed

    def _check_session(self, session_id: str) -> None:
        record = self._store().get(f"dcs/sessions/{session_id}", default=None)
        if record is None or not record["open"]:
            raise SessionExpiredError(session_id)

    # ------------------------------------------------------------------
    # watches
    # ------------------------------------------------------------------

    def watch(self, path: str, client_id: str) -> None:
        """Register a one-shot watch on ``path`` for ``client_id``."""
        _validate_path(path)
        self._store().update(
            f"dcs/watches{path}",
            lambda clients: sorted(set(clients or []) | {client_id}),
            default=[],
        )

    def poll_events(self, client_id: str) -> list[WatchEvent]:
        """Drain the client's event feed (ordered by zxid)."""
        store = self._store()
        key = f"dcs/events/{client_id}"
        events = store.get(key, default=[])
        if events:
            store.put(key, [])
        return list(events)

    def _fire_watches(self, path: str, kind: str, zxid: int) -> None:
        store = self._store()
        watchers = store.get(f"dcs/watches{path}", default=[])
        if not watchers:
            return
        store.put(f"dcs/watches{path}", [])  # one-shot semantics
        event = WatchEvent(path=path, kind=kind, zxid=zxid)
        for client in watchers:
            store.update(
                f"dcs/events/{client}",
                lambda feed: (feed or []) + [event],
                default=[],
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _next_zxid(self) -> int:
        """Draw the next transaction id — the total order of updates."""
        return self._store().incr("dcs/zxid")

    def _count_update(self) -> None:
        type(self).updates_total.update(self, lambda v: v + 1)

    def _store(self):
        ctx = self._ermi_ctx
        if ctx is None:
            raise RuntimeError(
                "CoordinationService must be instantiated through "
                "ElasticRuntime.new_pool(...)"
            )
        return ctx.store
