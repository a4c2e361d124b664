"""Elastic object pools: instantiation, lifecycle, drain, and membership.

An elastic class is instantiated into a *pool* of objects, one per Mesos
slice, each behind its own skeleton on its own endpoint ("JVM").  The pool
behaves as a single remote object; this module implements its lifecycle
(paper sections 2.4, 2.5, 4.2):

- instantiation with ``min >= 2`` members, tolerating partial grants
  (``l < k`` slices available → ``l`` members);
- growth: request slice → provisioning delay → activate member (the
  provisioning interval of Figure 8 is measured here);
- graceful shrink: pick member → redirect new calls away (skeleton drain
  state) → wait for pending invocations → release the slice back to Mesos;
- sentinel: the lowest-uid active member, elected by royal hierarchy,
  broadcasting pool state over the group channel;
- member failure: lost slices and dead endpoints are detected and the
  sentinel re-elected.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.node import Slice, SliceState
from repro.core.api import ElasticConfig, ElasticObject, MethodCallStat
from repro.core.monitor import ManualUtilization, MemberMonitor, UtilizationSource
from repro.errors import PoolShutdownError, RemoteError, StoreError
from repro.groupcomm.channel import Channel
from repro.rmi.remote import RemoteRef, Skeleton
from repro.routing import ShardRouter

if TYPE_CHECKING:
    from repro.core.runtime import RuntimeServices


class MemberState(Enum):
    STARTING = "starting"     # slice granted, container/JVM booting
    ACTIVE = "active"         # serving invocations
    DRAINING = "draining"     # redirecting, waiting for pending calls
    TERMINATED = "terminated"  # slice released


@dataclass
class PoolMember:
    """One object of the pool: slice + endpoint + skeleton + instance."""

    uid: int
    slice: Slice
    state: MemberState
    instance: ElasticObject | None = None
    skeleton: Skeleton | None = None
    endpoint_id: str | None = None
    utilization: UtilizationSource = field(default_factory=ManualUtilization)
    monitor: MemberMonitor | None = None
    requested_at: float = 0.0
    active_at: float | None = None
    terminated_at: float | None = None

    def ref(self) -> RemoteRef:
        if self.skeleton is None:
            raise RuntimeError(f"member {self.uid} has no skeleton yet")
        return self.skeleton.ref()

    def address(self) -> str:
        return f"member-{self.uid}"


@dataclass
class ProvisioningRecord:
    """One Figure 8 data point: request-to-first-service interval."""

    pool: str
    uid: int
    requested_at: float
    active_at: float
    direction: str = "up"  # "up" or "down" (drain duration)

    @property
    def latency(self) -> float:
        return self.active_at - self.requested_at


@dataclass
class FailureRecord:
    """One detected member failure (for the chaos recovery report)."""

    at: float
    pool: str
    uid: int
    kind: str  # "endpoint-dead", "slice-lost", "drain-crashed"


@dataclass
class ScalingEvent:
    """A scaling decision applied to the pool (for metrics/ablation)."""

    at: float
    pool: str
    decision: int       # requested delta (post-clamp)
    granted: int        # members actually added/started draining
    size_before: int
    size_after: int
    reason: str = ""


@dataclass(frozen=True)
class ShardInfo:
    """Where a member pool sits inside a sharded logical pool."""

    parent: str   # logical pool name ("OrderRouter")
    index: int    # this shard's index in [0, count)
    count: int    # total shards of the parent

    def map_entry_key(self) -> str:
        """KV-store key of this shard's live shard-map entry (the
        sentinel publishes here on its broadcast cadence)."""
        return f"{self.parent}$shardmap/{self.index}"


class MemberContext:
    """What an attached instance can reach: its pool and shared state."""

    def __init__(self, pool: "ElasticObjectPool", member: PoolMember) -> None:
        self.pool = pool
        self.member = member
        self.store = pool.services.store
        self.locks = pool.services.locks
        # The runtime's shared watch cache (None for hand-built
        # services): elastic fields read through it when present.
        self.cache = getattr(pool.services, "cache", None)

    def lock_owner_id(self) -> str:
        return f"{self.pool.name}:member-{self.member.uid}"

    def stub_for(self, ref: RemoteRef):
        """A unicast stub for a remote reference received as an argument
        — the RMI callback pattern: clients pass a reference to an
        object they exported, and the member invokes back through it."""
        from repro.rmi.remote import Stub

        return Stub(
            self.pool.services.transport,
            ref,
            caller=f"{self.pool.name}:member-{self.member.uid}",
        )


class ElasticObjectPool:
    """A pool of elastic objects that clients see as one remote object."""

    def __init__(
        self,
        name: str,
        cls: type[ElasticObject],
        factory: Callable[[], ElasticObject],
        config: ElasticConfig,
        services: "RuntimeServices",
        shard_of: ShardInfo | None = None,
    ) -> None:
        config.validate()
        self.name = name
        self.cls = cls
        self.factory = factory
        self.config = config
        self.services = services
        # Set when this pool is one shard of a ShardedElasticPool: the
        # sentinel then publishes this shard's map entry alongside its
        # pool-state broadcast, and traces carry the shard index.
        self.shard_of = shard_of
        self.channel = Channel(f"pool:{name}")
        # The record of every member there ever was, terminated ones
        # included (reports and benchmarks read their stamps and stats).
        self.members: dict[int, PoolMember] = {}
        # The members that are not TERMINATED — what every scan walks, so
        # a long-lived pool pays for the members alive, not for its
        # history.  Entered in grow, left in _terminate, under _lock.
        self._live: dict[int, PoolMember] = {}
        self._uid_counter = itertools.count(1)
        self._lock = threading.RLock()
        self.closed = False
        # Evaluation bookkeeping.
        self.provisioning_records: list[ProvisioningRecord] = []
        self.scaling_events: list[ScalingEvent] = []
        self.failure_records: list[FailureRecord] = []
        self._last_window_stats: dict[str, MethodCallStat] = {}
        self._window_cpu_avg = 0.0
        self._window_ram_avg = 0.0
        self._last_rebalance_plan: dict[int, Any] = {}
        # Latest pool state each member received from the sentinel.
        self.last_broadcast_state: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _emit(self, kind: str, **fields: Any) -> None:
        """Trace one pool lifecycle event (no-op without an Observability).

        Events carry member *uids* (per-pool, deterministic) and the pool
        name — never endpoint ids or slice ids, which come from
        process-global counters and would break trace reproducibility."""
        obs = self.services.obs
        if obs is not None:
            obs.tracer.emit("pool", kind, pool=self.name, **fields)

    def _note_size(self) -> None:
        """Record the post-change pool size (trace event + gauge)."""
        obs = self.services.obs
        if obs is None:
            return
        size = self.size()
        now = self.services.scheduler.clock.now()
        obs.tracer.emit("pool", "pool-size", pool=self.name, size=size)
        obs.registry.gauge(f"pool.size.{self.name}").set(size, at=now)

    # ------------------------------------------------------------------
    # membership queries
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Number of members currently serving (the paper's pool size)."""
        with self._lock:
            return sum(
                1 for m in self._live.values() if m.state is MemberState.ACTIVE
            )

    def provisioned_size(self) -> int:
        """Members paid for: serving plus still booting."""
        with self._lock:
            return sum(
                1
                for m in self._live.values()
                if m.state in (MemberState.ACTIVE, MemberState.STARTING)
            )

    def active_members(self) -> list[PoolMember]:
        with self._lock:
            return sorted(
                (m for m in self._live.values() if m.state is MemberState.ACTIVE),
                key=lambda m: m.uid,
            )

    def sentinel(self) -> PoolMember | None:
        """Lowest-uid active member (royal hierarchy, section 4.3)."""
        active = self.active_members()
        return active[0] if active else None

    def member_identities(self) -> tuple[RemoteRef, ...]:
        """Identities of active members, sentinel first — what the client
        stub fetches on first contact and after every epoch move.

        A tuple of frozen refs: the reply is provably immutable, so it
        rides the zero-copy fast path (no pickle on a membership refresh)
        and no caller can change what the next fetch returns."""
        return tuple(m.ref() for m in self.active_members())

    def membership_epoch_key(self) -> str:
        """KV-store key of this pool's membership epoch."""
        return f"{self.name}$epoch"

    def _bump_epoch(self) -> None:
        """Advance the membership epoch in the shared store.

        Client stubs compare this epoch against their cached one and
        re-fetch identities only when it moves — keeping membership
        refresh off the invocation data path (no count-based rescans).
        """
        try:
            self.services.store.incr(self.membership_epoch_key())
        except StoreError:
            # Store outage: stubs fall back to failure-driven refresh.
            # Only store failures are masked here — anything else is a
            # programming error and must surface.
            pass

    # ------------------------------------------------------------------
    # instantiation and growth
    # ------------------------------------------------------------------

    def start(self) -> int:
        """Create the initial members (min pool size; fewer if the cluster
        is short on slices).  Returns the number actually started."""
        return self.grow(self.config.min_pool_size, reason="instantiation")

    def grow(self, count: int, reason: str = "scale-up") -> int:
        """Request ``count`` slices and start a member on each grant."""
        if count <= 0:
            return 0
        self._check_open()
        size_before = self.size()
        slices = self.services.master.request_slices(
            self.services.framework_name, count
        )
        now = self.services.scheduler.clock.now()
        load = self.load_factor()
        for sl in slices:
            member = PoolMember(
                uid=next(self._uid_counter),
                slice=sl,
                state=MemberState.STARTING,
                requested_at=now,
            )
            with self._lock:
                self.members[member.uid] = member
                self._live[member.uid] = member
            latency = self.services.provisioner.sample_up_latency(load)
            self.services.scheduler.call_after(
                latency, lambda m=member: self._activate(m)
            )
        self.scaling_events.append(
            ScalingEvent(
                at=now,
                pool=self.name,
                decision=count,
                granted=len(slices),
                size_before=size_before,
                size_after=size_before,  # activation is asynchronous
                reason=reason,
            )
        )
        self._emit(
            "pool-grow",
            requested=count, granted=len(slices),
            reason=reason, size_before=size_before,
        )
        return len(slices)

    def _activate(self, member: PoolMember) -> None:
        """Provisioning finished: export the object and join the group."""
        with self._lock:
            if self.closed or member.state is not MemberState.STARTING:
                return
        endpoint = self.services.transport.add_endpoint(member.address())
        instance = self.factory()
        skeleton = Skeleton(
            impl=instance,
            transport=self.services.transport,
            endpoint_id=endpoint.endpoint_id,
            clock=self.services.scheduler.clock,
            object_id=f"{self.name}/{member.uid}",
            uid=member.uid,
            obs=self.services.obs,
        )
        member.endpoint_id = endpoint.endpoint_id
        member.skeleton = skeleton
        member.instance = instance
        member.monitor = MemberMonitor(clock=self.services.scheduler.clock)
        if (
            isinstance(member.utilization, ManualUtilization)
            and self.services.default_utilization is not None
        ):
            source = self.services.default_utilization(member)
            if source is not None:
                member.utilization = source
        instance._ermi_ctx = MemberContext(self, member)
        self.channel.join(
            member.address(),
            on_message=lambda sender, msg, m=member: self._on_group_message(
                m, sender, msg
            ),
        )
        now = self.services.scheduler.clock.now()
        member.active_at = now
        with self._lock:
            member.state = MemberState.ACTIVE
        # Lifecycle hook: applications that replicate in-member state
        # (e.g. Paxos learners) catch up from the group here.
        join_hook = getattr(instance, "on_pool_join", None)
        if join_hook is not None:
            join_hook()
        self.provisioning_records.append(
            ProvisioningRecord(
                pool=self.name,
                uid=member.uid,
                requested_at=member.requested_at,
                active_at=now,
            )
        )
        self._emit(
            "member-active",
            uid=member.uid, requested_at=round(member.requested_at, 9),
        )
        self._note_size()
        # Record the member identity in the shared store, as the paper's
        # runtime stores skeleton uids/identities in HyperDex.  The store
        # copy is a best-effort mirror — identities flow to clients from
        # the sentinel — so losing the owning partition must not block a
        # member from activating.
        try:
            self.services.store.update(
                f"{self.name}$members",
                lambda ids: {**(ids or {}), member.uid: member.ref()},
                default={},
            )
        except StoreError:
            pass
        self._bump_epoch()
        self.services.on_membership_change(self)

    # ------------------------------------------------------------------
    # graceful shrink (paper section 2.5 removal protocol)
    # ------------------------------------------------------------------

    def shrink(self, count: int, reason: str = "scale-down") -> int:
        """Drain and remove up to ``count`` members, never going below the
        minimum pool size and never picking the sentinel while other
        members remain."""
        if count <= 0:
            return 0
        self._check_open()
        active = self.active_members()
        removable = max(0, len(active) - self.config.min_pool_size)
        count = min(count, removable)
        if count == 0:
            return 0
        sentinel = self.sentinel()
        candidates = [m for m in active if m is not sentinel]
        # Remove youngest members first: they hold the least warmed state.
        candidates.sort(key=lambda m: -m.uid)
        victims = candidates[:count]
        size_before = self.size()
        now = self.services.scheduler.clock.now()
        for member in victims:
            self._begin_drain(member)
        self.scaling_events.append(
            ScalingEvent(
                at=now,
                pool=self.name,
                decision=-count,
                granted=-len(victims),
                size_before=size_before,
                size_after=size_before - len(victims),
                reason=reason,
            )
        )
        self._emit(
            "pool-shrink",
            requested=count, victims=[m.uid for m in victims],
            reason=reason, size_before=size_before,
        )
        return len(victims)

    def _begin_drain(self, member: PoolMember) -> None:
        """Step 1: redirect subsequent calls away; schedule finalization."""
        with self._lock:
            if member.state is not MemberState.ACTIVE:
                return
            member.state = MemberState.DRAINING
        if member.skeleton is not None:
            member.skeleton.start_drain()
        # Client batchers may hold calls queued for this member; push
        # them out now so each entry gets its per-call drained/redirect
        # answer and retries elsewhere, instead of idling through the
        # drain window behind the batcher's in-flight backpressure.
        if self.services.flush_client_batches is not None:
            self.services.flush_client_batches()
        drain_started = self.services.scheduler.clock.now()
        self._emit("member-drain", uid=member.uid)
        latency = self.services.provisioner.sample_down_latency(self.load_factor())
        self.services.scheduler.call_after(
            latency,
            lambda: self._finalize_removal(member, drain_started),
        )
        self._bump_epoch()
        self.services.on_membership_change(self)
        self._note_size()

    def _finalize_removal(self, member: PoolMember, drain_started: float) -> None:
        """Step 2: pending invocations have finished (or were given the
        drain window); shut the object down and return the slice."""
        if member.state is not MemberState.DRAINING:
            return
        skeleton = member.skeleton
        if skeleton is not None and not skeleton.is_drained:
            # Live mode: give in-flight calls a bounded grace period.
            skeleton.wait_drained(timeout=5.0)
        self._terminate(member)
        now = self.services.scheduler.clock.now()
        self.provisioning_records.append(
            ProvisioningRecord(
                pool=self.name,
                uid=member.uid,
                requested_at=drain_started,
                active_at=now,
                direction="down",
            )
        )
        self._emit(
            "member-removed",
            uid=member.uid, drain_started=round(drain_started, 9),
        )

    def _terminate(self, member: PoolMember, release_slice: bool = True) -> None:
        with self._lock:
            if member.state is MemberState.TERMINATED:
                return
            member.state = MemberState.TERMINATED
            member.terminated_at = self.services.scheduler.clock.now()
            del self._live[member.uid]
        if member.skeleton is not None:
            member.skeleton.unexport()
        if member.endpoint_id is not None:
            self.services.transport.kill(member.endpoint_id)
        self.channel.leave(member.address())
        # Reclaim every distributed lock the member still held: a lease
        # whose owner crashed must be released eagerly, not discovered
        # stale by whichever waiter happens to touch the name next.
        self.services.locks.release_owner(f"{self.name}:member-{member.uid}")
        try:
            self.services.store.update(
                f"{self.name}$members",
                lambda ids: {
                    uid: ref
                    for uid, ref in (ids or {}).items()
                    if uid != member.uid
                },
                default={},
            )
        except StoreError:
            # Same best-effort mirror as on activation.
            pass
        self._bump_epoch()
        if release_slice:
            try:
                self.services.master.release_slice(
                    self.services.framework_name, member.slice
                )
            except Exception:
                # Master outage during release: the slice stays accounted
                # to us until recovery (section 4.4 pauses scaling then).
                pass
        self.services.on_membership_change(self)
        self._note_size()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def handle_slice_lost(self, sl: Slice) -> None:
        """A cluster node died under one of our members."""
        with self._lock:
            victim = next(
                (m for m in self._live.values() if m.slice is sl), None
            )
        if victim is not None:
            self._terminate(victim, release_slice=False)

    def reap_failures(self) -> list[PoolMember]:
        """Detect and remove failed members; return the members reaped.

        Covers the three ways a member dies out from under us:

        - **slice lost** — the cluster node hosting the slice failed; the
          slice is gone, so it must not be released back to the master;
        - **endpoint dead** — the "JVM" crashed while the node lives on;
          the slice is still ours and is returned for reuse;
        - **crashed drain** — either of the above while the member was
          DRAINING.  Without this case a drain whose member died would
          never finalize: ``_finalize_removal`` waits on a skeleton that
          will never report drained, the slice is never released, and
          the pool wedges below ``min``.

        Termination releases the member's distributed-lock leases, bumps
        the membership epoch (client stubs refresh), and — because the
        sentinel is simply the lowest-uid *active* member — re-election
        is implicit in the next :meth:`sentinel` call.
        """
        now = self.services.scheduler.clock.now()
        with self._lock:
            candidates = sorted(
                (
                    m
                    for m in self._live.values()
                    if m.state in (MemberState.ACTIVE, MemberState.DRAINING)
                ),
                key=lambda m: m.uid,
            )
        reaped: list[PoolMember] = []
        for member in candidates:
            lost = member.slice.state is SliceState.LOST
            dead = False
            if not lost and member.endpoint_id is not None:
                try:
                    dead = not self.services.transport.endpoint(
                        member.endpoint_id
                    ).alive
                except RemoteError:
                    dead = True
            if not lost and not dead:
                continue
            if member.state is MemberState.DRAINING:
                kind = "drain-crashed"
            elif lost:
                kind = "slice-lost"
            else:
                kind = "endpoint-dead"
            # A lost slice no longer exists at the master; releasing it
            # would double-free (the master already reclaimed the node).
            self._terminate(member, release_slice=not lost)
            self.failure_records.append(
                FailureRecord(at=now, pool=self.name, uid=member.uid, kind=kind)
            )
            self._emit("member-reaped", uid=member.uid, cause=kind)
            reaped.append(member)
        return reaped

    # ------------------------------------------------------------------
    # monitoring windows
    # ------------------------------------------------------------------

    def sample_utilization(self) -> None:
        """Record one utilization sample per active member."""
        for member in self.active_members():
            if member.monitor is not None:
                member.monitor.record(
                    member.utilization.cpu_percent(),
                    member.utilization.ram_percent(),
                )

    def avg_cpu_usage(self) -> float:
        """CPU percent averaged across members over the burst interval.

        Returns the live mean of the current window while samples are
        accumulating; once :meth:`roll_window` closes a window, the value
        of that completed window is reported (the semantics of Figure 3's
        ``getAvgCPUUsage``).
        """
        live = self._live_window_mean("cpu")
        return live if live is not None else self._window_cpu_avg

    def avg_ram_usage(self) -> float:
        live = self._live_window_mean("ram")
        return live if live is not None else self._window_ram_avg

    def _live_window_mean(self, kind: str) -> float | None:
        values = []
        for member in self.active_members():
            if member.monitor is None or not member.monitor.samples:
                continue
            values.append(
                member.monitor.window_cpu()
                if kind == "cpu"
                else member.monitor.window_ram()
            )
        if not values:
            return None
        return sum(values) / len(values)

    def load_factor(self) -> float:
        """Normalized load in [0, ~1.5] driving provisioning latency.

        Combines member utilization with pool scale: a larger pool means
        more in-flight invocations to consider for redirection and a
        busier sentinel, which is why the paper observes provisioning
        intervals growing with workload (section 5.6).
        """
        utilization = self.avg_cpu_usage() / 100.0
        scale = self.size() / max(1, self.config.max_pool_size)
        return utilization * (0.35 + 0.65 * scale)

    def roll_window(self) -> None:
        """Close the burst-interval window: cache utilization averages,
        aggregate per-method stats across members, and reset monitors."""
        live_cpu = self._live_window_mean("cpu")
        live_ram = self._live_window_mean("ram")
        if live_cpu is not None:
            self._window_cpu_avg = live_cpu
        if live_ram is not None:
            self._window_ram_avg = live_ram
        aggregated: dict[str, MethodCallStat] = {}
        interval = self.config.burst_interval
        for member in self.active_members():
            if member.skeleton is None:
                continue
            window = member.skeleton.stats.snapshot_and_reset()
            for method, stats in window.items():
                agg = aggregated.setdefault(method, MethodCallStat())
                prior_latency_weight = agg.calls
                agg.calls += stats.calls
                agg.errors += stats.errors
                if agg.calls > 0:
                    agg.mean_latency = (
                        agg.mean_latency * prior_latency_weight
                        + stats.total_latency
                        / max(stats.calls, 1)
                        * stats.calls
                    ) / agg.calls
        for stat in aggregated.values():
            stat.rate = stat.calls / interval if interval > 0 else 0.0
        self._last_window_stats = aggregated
        for member in self.active_members():
            if member.monitor is not None:
                member.monitor.reset_window()

    def method_call_stats(self) -> dict[str, MethodCallStat]:
        """Stats for the last completed burst window (Figure 3's
        ``getMethodCallStats``)."""
        return dict(self._last_window_stats)

    def pending_by_member(self) -> dict[int, int]:
        return {
            m.uid: (m.skeleton.pending if m.skeleton else 0)
            for m in self.active_members()
        }

    # ------------------------------------------------------------------
    # group messages (sentinel broadcasts)
    # ------------------------------------------------------------------

    def _on_group_message(
        self, member: PoolMember, sender: str, message: Any
    ) -> None:
        kind = message.get("kind") if isinstance(message, dict) else None
        if kind == "pool-state":
            self.last_broadcast_state = message
        elif kind == "rebalance":
            directive = message["plan"].get(member.uid)
            if member.skeleton is not None:
                member.skeleton.redirect_policy = directive
        else:
            # Application-level group messages (e.g. Paxos rounds) go to
            # the member instance when it declares a handler.
            handler = getattr(member.instance, "on_group_message", None)
            if handler is not None:
                handler(sender, message)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Terminate every member and release all slices."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            members = list(self._live.values())
        for member in members:
            self._terminate(member)

    def _check_open(self) -> None:
        if self.closed:
            raise PoolShutdownError(f"pool {self.name!r} is shut down")


class ShardedElasticPool:
    """One logical elastic object partitioned into N member pools.

    The step from "one elastic pool" to "millions of users" (ROADMAP
    item 1): instead of a single flat member list behind round-robin,
    the logical pool is split into ``count`` *shards*, each a full
    :class:`ElasticObjectPool` — its own member list, its own sentinel,
    its own epoch key (``{name}/shard{i}$epoch``), and its own scaling
    decisions under the paper's ``changePoolSize()``/Decider contract.
    A hot shard grows while cold ones shrink; nothing is coordinated
    across shards beyond sharing the cluster master's slice budget.

    Key→shard routing lives in a :class:`~repro.routing.ShardRouter`
    (consistent hashing over the shard names).  The shard *set* is
    fixed at instantiation, so the route of every affinity key is
    stable under any amount of per-shard membership churn — growing,
    shrinking, or reaping members of shard *j* can never move a key
    owned by shard *i*.

    The shard map is published in the shared store at two levels:

    - ``{name}$shards`` — the static topology (shard count + pool
      names), written once at instantiation; a client in another
      process reads this to build its router and per-shard stubs;
    - ``{name}$shardmap/{i}`` — each shard's live entry (sentinel uid,
      size, epoch), refreshed by that shard's sentinel on its broadcast
      cadence (:meth:`SentinelAgent.tick`).
    """

    def __init__(
        self, name: str, shards: list[ElasticObjectPool]
    ) -> None:
        if not shards:
            raise ValueError(f"sharded pool {name!r} needs >= 1 shard")
        self.name = name
        self.shards = list(shards)
        self.router = ShardRouter([p.name for p in self.shards])

    # -- routing ---------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """The shard index owning ``key`` (total and deterministic)."""
        return self.router.shard_for(str(key))

    def pool_for(self, key: str) -> ElasticObjectPool:
        return self.shards[self.shard_for(key)]

    # -- aggregate queries ----------------------------------------------

    def size(self) -> int:
        """Active members across every shard."""
        return sum(p.size() for p in self.shards)

    def sizes(self) -> list[int]:
        """Per-shard active sizes, in shard order."""
        return [p.size() for p in self.shards]

    def provisioned_size(self) -> int:
        return sum(p.provisioned_size() for p in self.shards)

    @property
    def closed(self) -> bool:
        return all(p.closed for p in self.shards)

    # -- shard map -------------------------------------------------------

    def shard_map_key(self) -> str:
        """KV-store key of the static shard topology."""
        return f"{self.name}$shards"

    def shard_map(self) -> dict[str, Any]:
        return {
            "pool": self.name,
            "count": len(self.shards),
            "pools": [p.name for p in self.shards],
        }

    def publish_shard_map(self) -> None:
        """Write the static topology to the shared store (best effort,
        like the member-identity mirror: clients can always fall back
        to the per-shard registry bindings)."""
        try:
            self.shards[0].services.store.put(
                self.shard_map_key(), self.shard_map()
            )
        except StoreError:
            pass

    # -- lifecycle -------------------------------------------------------

    def shutdown(self) -> None:
        for pool in self.shards:
            pool.shutdown()
