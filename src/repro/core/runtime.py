"""The ElasticRMI runtime (paper section 4).

Wires together the substrates — cluster manager, key-value store, lock
manager, transport, registry, group channels — and runs the control loop:

- instantiates elastic pools (one member per Mesos slice, plus the shared
  HyperStore on its own slice);
- every *burst interval*: closes the monitoring window, asks the pool's
  scaling policy for a delta, clamps it to [min, max], and grows/shrinks
  the pool (Mesos outages pause scaling, per section 4.4);
- on a finer cadence: samples member utilization and runs the sentinel's
  broadcast/rebalance duties;
- keeps the registry binding for each pool pointed at the current
  sentinel, so client stubs always have a live bootstrap address.

Construction helpers give the two operating modes:

- :meth:`ElasticRuntime.local` — live: wall clock, timer threads, a
  threaded transport with real blocking calls (the runnable examples);
- :meth:`ElasticRuntime.simulated` — deterministic: virtual clock on a
  :class:`~repro.sim.kernel.Kernel`, direct transport (the paper's
  experiments re-run in virtual time).
"""

from __future__ import annotations

import gc
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.master import MesosMaster
from repro.cluster.node import Slice
from repro.cluster.provisioner import (
    ContainerProvisioner,
    InstantProvisioner,
    Provisioner,
)
from repro.core.api import Decider, ElasticObject
from repro.core.balancer import BalancingMode, ElasticStub, ShardedElasticStub
from repro.core.monitor import QueueUtilization, UtilizationSource
from repro.core.pool import (
    ElasticObjectPool,
    PoolMember,
    ShardedElasticPool,
    ShardInfo,
)
from repro.core.scaling import ScalingPolicy, note_policy_error, select_policy
from repro.core.sentinel import SentinelAgent
from repro.errors import MasterUnavailableError, PoolConfigurationError
from repro.faults.policy import RetryPolicy
from repro.kvstore.cache import WatchCache
from repro.kvstore.locks import LockManager
from repro.kvstore.store import HyperStore
from repro.rmi.batching import RequestBatcher
from repro.rmi.registry import Registry
from repro.rmi.transport import DirectTransport, ThreadedTransport, Transport
from repro.routing import shard_names
from repro.sim.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler, ThreadScheduler


def transport_from_env(
    choice: "Transport | str | None" = None,
) -> Transport:
    """Resolve the live transport: an instance passes through, a name
    (or ``ERMI_TRANSPORT`` when ``choice`` is None) selects one.

    - ``threaded`` (default) — :class:`ThreadedTransport`, one blocked
      OS thread per in-flight call;
    - ``asyncio`` (alias ``aio``) — :class:`~repro.rmi.aio.AsyncioTransport`,
      loop-native, thousands of in-flight calls per process.

    The simulated runtime ignores this entirely: determinism lives on
    :class:`DirectTransport` regardless of the env.
    """
    if choice is None:
        choice = os.environ.get("ERMI_TRANSPORT", "threaded")
    if not isinstance(choice, str):
        return choice
    name = choice.strip().lower()
    if name in ("", "threaded"):
        return ThreadedTransport()
    if name in ("asyncio", "aio"):
        from repro.rmi.aio import AsyncioTransport

        return AsyncioTransport()
    raise PoolConfigurationError(
        f"unknown transport {choice!r}: expected 'threaded' or 'asyncio'"
    )


@dataclass
class RuntimeServices:
    """The substrate view a pool needs; kept narrow on purpose."""

    master: MesosMaster
    scheduler: Scheduler
    transport: Transport
    store: HyperStore
    locks: LockManager
    provisioner: Provisioner
    framework_name: str
    on_membership_change: Callable[[ElasticObjectPool], None]
    default_utilization: Callable[[PoolMember], UtilizationSource | None] | None = None
    # Flush client-side request batchers (drain protocol): a member that
    # starts draining must see the calls already queued for it *now*, so
    # they get their per-entry drained/redirect answers and retry
    # elsewhere instead of sitting out the drain window.  None when no
    # runtime-made stub batches.
    flush_client_batches: Callable[[], None] | None = None
    # The runtime's shared WatchCache over ``store``, or None.  Members
    # and sentinels route coordination reads (elastic fields, epoch
    # mirrors) through it so steady-state reads are push-invalidated
    # local hits instead of store round-trips.
    cache: Any = None
    # The runtime's Observability (repro.obs), or None — pools check this
    # once per event site, so a runtime without one pays a single branch.
    obs: Any = None


@dataclass
class PoolRecord:
    """Runtime-internal state for one managed pool."""

    pool: ElasticObjectPool
    policy: ScalingPolicy
    sentinel_agent: SentinelAgent
    paused_ticks: int = 0
    tick_count: int = 0
    on_tick: list[Callable[[ElasticObjectPool], None]] = field(
        default_factory=list
    )


class ElasticRuntime:
    """Entry point: create one per deployment, then ``new_pool(...)``.

    Construction freezes every object alive at that moment out of the
    cyclic collector's walks, and :meth:`shutdown` unfreezes the whole
    heap (DESIGN.md, "The collector").
    """

    def __init__(
        self,
        master: MesosMaster,
        scheduler: Scheduler,
        transport: Transport,
        *,
        store: HyperStore | None = None,
        locks: LockManager | None = None,
        registry: Registry | None = None,
        provisioner: Provisioner | None = None,
        rng: RngStreams | None = None,
        framework_name: str = "elasticrmi",
        samples_per_burst: int = 6,
        store_monitor_interval: float = 60.0,
        store_ops_per_node_limit: int | None = 500_000,
        failure_check_interval: float | None = None,
        observability: Any = None,
    ) -> None:
        self.master = master
        self.scheduler = scheduler
        self.transport = transport
        self.rng = rng or RngStreams(0)
        self.store = store or HyperStore(nodes=1)
        self.locks = locks or LockManager(clock=scheduler.clock)
        # One shared read-through cache over the store: epoch reads,
        # shard-map fallbacks, and elastic fields all go through it.
        # Watch-invalidated (the store is in-process here), with the
        # lease TTL as the fallback when a watch stream degrades; driven
        # by the scheduler's clock so lease expiry runs on virtual time
        # under simulation.
        self.store_cache = WatchCache(
            self.store,
            clock=scheduler.clock.now,
            obs=observability,
        )
        # Observability fan-out: one repro.obs.Observability (or None)
        # shared by every layer.  Wiring happens here, once, so no layer
        # needs to know whether tracing is on.
        self.obs = observability
        if observability is not None:
            tracer = observability.tracer
            set_obs = getattr(transport, "set_obs", None)
            if set_obs is not None:
                # Full wiring: tracer plus transport-owned metrics
                # (dispatch saturation gauges, loop-lag histograms).
                set_obs(observability)
            else:
                set_tracer = getattr(transport, "set_tracer", None)
                if set_tracer is not None:
                    set_tracer(tracer)
            master.set_tracer(tracer)
            self.locks.set_tracer(tracer)
            store_obs = getattr(self.store, "set_obs", None)
            if store_obs is not None:
                store_obs(observability)
        # Last known sentinel uid per pool, to trace elections exactly
        # when leadership actually moves.
        self._last_sentinel: dict[str, int | None] = {}
        self.registry = registry or Registry()
        self.provisioner = provisioner or ContainerProvisioner(
            self.rng.stream("provisioner")
        )
        self.framework_name = framework_name
        self.samples_per_burst = max(1, samples_per_burst)
        # Failure-detection cadence.  ``None`` (the default) keeps the
        # legacy behaviour — failures are noticed once per burst interval
        # by the control tick.  Setting it runs a dedicated repair loop
        # on this finer period *and* arms membership-change-triggered
        # repair, so a crash is healed without waiting out the burst.
        if failure_check_interval is not None and failure_check_interval <= 0:
            raise ValueError(
                f"failure_check_interval must be positive: "
                f"{failure_check_interval}"
            )
        self.failure_check_interval = failure_check_interval
        # Stubs handed out by .stub(): weakly held so abandoned stubs
        # die normally, strongly reachable ones get their pending batch
        # entries flushed on every membership change (drain protocol).
        self._client_stubs: "weakref.WeakSet[ElasticStub]" = weakref.WeakSet()
        self._pools: dict[str, PoolRecord] = {}
        self._sharded: dict[str, ShardedElasticPool] = {}
        self._lock = threading.RLock()
        self._closed = False
        master.register_framework(
            framework_name, on_slice_lost=self._on_slice_lost
        )
        # The paper instantiates the shared store on one additional Mesos
        # slice; account for it so cluster utilization is honest.
        self._store_slices: list[Slice] = master.request_slices(
            framework_name, 1
        )
        # Store performance monitoring: "ElasticRMI ... continues to
        # monitor the performance of the HyperDex over the lifetime of
        # the elastic object [and] may add additional nodes ... as
        # necessary" (section 4.2).
        self._store_monitor_interval = store_monitor_interval
        self._store_ops_limit = store_ops_per_node_limit
        self._store_ops_seen = self.store.total_ops()
        self.store_scale_events: list[tuple[float, str]] = []
        if store_ops_per_node_limit is not None:
            self.scheduler.call_after(
                store_monitor_interval, self._monitor_store
            )
        # Everything alive now -- the import graph, the substrates just
        # built -- lives as long as the runtime, and a gen-2 pass that
        # re-walks it is a 5-10 ms pause on the call path.  Collect the
        # garbage first (freezing it would pin it), then move the rest
        # out of the collector's reach until shutdown() unfreezes.
        gc.collect()
        gc.freeze()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def local(
        cls,
        nodes: int = 8,
        slices_per_node: int = 4,
        seed: int = 0,
        provisioner: Provisioner | None = None,
        transport: "Transport | str | None" = None,
        **kwargs: Any,
    ) -> "ElasticRuntime":
        """Live runtime: wall clock, timer threads, live transport.

        ``transport`` picks the invocation substrate: a Transport
        instance, a name (``"threaded"``/``"asyncio"``), or None to
        read ``ERMI_TRANSPORT`` (default threaded).  Provisioning is
        instantaneous by default so examples and tests are snappy; pass
        a provisioner to model container-start delays.
        """
        scheduler = ThreadScheduler()
        transport = transport_from_env(transport)
        master = MesosMaster.homogeneous(nodes, slices_per_node)
        return cls(
            master,
            scheduler,
            transport,
            provisioner=provisioner or InstantProvisioner(),
            rng=RngStreams(seed),
            **kwargs,
        )

    @classmethod
    def simulated(
        cls,
        kernel: Kernel,
        nodes: int = 16,
        slices_per_node: int = 4,
        seed: int = 0,
        provisioner: Provisioner | None = None,
        rng: RngStreams | None = None,
        **kwargs: Any,
    ) -> "ElasticRuntime":
        """Deterministic runtime on a simulation kernel."""
        transport = DirectTransport()
        master = MesosMaster.homogeneous(nodes, slices_per_node)
        rng = rng or RngStreams(seed)
        return cls(
            master,
            kernel,  # Kernel satisfies the Scheduler protocol
            transport,
            provisioner=provisioner
            or ContainerProvisioner(rng.stream("provisioner")),
            rng=rng,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # pool management
    # ------------------------------------------------------------------

    def new_pool(
        self,
        cls_: type[ElasticObject],
        *args: Any,
        name: str | None = None,
        min_size: int | None = None,
        max_size: int | None = None,
        decider: Decider | None = None,
        utilization_factory: Callable[
            [PoolMember], UtilizationSource | None
        ]
        | None = None,
        shard_of: ShardInfo | None = None,
        **kwargs: Any,
    ) -> ElasticObjectPool:
        """Instantiate an elastic class into a managed pool.

        ``args``/``kwargs`` are passed to every member's constructor.  The
        configuration comes from the class's ``__init__`` setters, with
        ``min_size``/``max_size`` overrides for deployment-time tuning.

        ``shard_of`` marks this pool as one shard of a sharded logical
        pool; :meth:`new_sharded_pool` sets it — applications don't.
        """
        if not issubclass(cls_, ElasticObject):
            raise PoolConfigurationError(
                f"{cls_.__name__} does not extend ElasticObject"
            )
        pool_name = name or cls_.__name__
        with self._lock:
            if pool_name in self._pools:
                raise PoolConfigurationError(
                    f"pool name already in use: {pool_name}"
                )

        def factory() -> ElasticObject:
            return cls_(*args, **kwargs)

        prototype = factory()
        config = prototype._ermi_config
        if min_size is not None:
            config.min_pool_size = min_size
        if max_size is not None:
            config.max_pool_size = max_size
        config.validate()
        effective_decider = decider or prototype._ermi_decider

        services = RuntimeServices(
            master=self.master,
            scheduler=self.scheduler,
            transport=self.transport,
            store=self.store,
            locks=self.locks,
            provisioner=self.provisioner,
            framework_name=self.framework_name,
            on_membership_change=self._on_membership_change,
            default_utilization=utilization_factory
            or self._default_utilization,
            flush_client_batches=self._flush_client_batches,
            obs=self.obs,
            cache=self.store_cache,
        )
        pool = ElasticObjectPool(
            name=pool_name,
            cls=cls_,
            factory=factory,
            config=config,
            services=services,
            shard_of=shard_of,
        )
        policy = select_policy(cls_, config, effective_decider)
        record = PoolRecord(
            pool=pool, policy=policy, sentinel_agent=SentinelAgent(pool)
        )
        with self._lock:
            self._pools[pool_name] = record
        pool.start()
        self._schedule_sampling(record)
        self._schedule_tick(record)
        self._schedule_repair(record)
        return pool

    def pool(self, name: str) -> ElasticObjectPool:
        with self._lock:
            if name not in self._pools:
                raise KeyError(f"unknown pool: {name}")
            return self._pools[name].pool

    def record(self, name: str) -> PoolRecord:
        with self._lock:
            if name not in self._pools:
                raise KeyError(f"unknown pool: {name}")
            return self._pools[name]

    def pools(self) -> list[ElasticObjectPool]:
        with self._lock:
            return [r.pool for r in self._pools.values()]

    # ------------------------------------------------------------------
    # sharded pools
    # ------------------------------------------------------------------

    def new_sharded_pool(
        self,
        cls_: type[ElasticObject],
        *args: Any,
        name: str | None = None,
        shards: int = 4,
        min_size: int | None = None,
        max_size: int | None = None,
        decider: Decider | None = None,
        utilization_factory: Callable[
            [PoolMember], UtilizationSource | None
        ]
        | None = None,
        **kwargs: Any,
    ) -> ShardedElasticPool:
        """Instantiate an elastic class into ``shards`` independent pools.

        Each shard is a full managed pool named ``{name}/shard{i}`` —
        its own sentinel, epoch key, monitoring window, and scaling
        ticks under ``decider`` — so a hot shard grows while cold ones
        shrink.  ``min_size``/``max_size`` bound each shard
        individually.  The static shard map is published to the store
        at ``{name}$shards``.
        """
        if not issubclass(cls_, ElasticObject):
            raise PoolConfigurationError(
                f"{cls_.__name__} does not extend ElasticObject"
            )
        if shards < 1:
            raise PoolConfigurationError(
                f"sharded pool needs >= 1 shard, got {shards}"
            )
        pool_name = name or cls_.__name__
        with self._lock:
            if pool_name in self._sharded:
                raise PoolConfigurationError(
                    f"sharded pool name already in use: {pool_name}"
                )
        shard_pools = [
            self.new_pool(
                cls_,
                *args,
                name=shard,
                min_size=min_size,
                max_size=max_size,
                decider=decider,
                utilization_factory=utilization_factory,
                shard_of=ShardInfo(pool_name, index, shards),
                **kwargs,
            )
            for index, shard in enumerate(shard_names(pool_name, shards))
        ]
        sharded = ShardedElasticPool(pool_name, shard_pools)
        with self._lock:
            self._sharded[pool_name] = sharded
        sharded.publish_shard_map()
        return sharded

    def sharded_pool(self, name: str) -> ShardedElasticPool:
        with self._lock:
            if name not in self._sharded:
                raise KeyError(f"unknown sharded pool: {name}")
            return self._sharded[name]

    def sharded_stub(
        self,
        name: str,
        mode: BalancingMode = BalancingMode.ROUND_ROBIN,
        caller: str = "client",
        retry_policy: RetryPolicy | None = None,
    ) -> ShardedElasticStub:
        """Key-affinity client stub for a sharded pool.

        One :class:`ElasticStub` per shard (each with its own membership
        cache and, when ``ERMI_BATCH_MAX`` enables coalescing, its own
        batcher — batches form per shard endpoint, never across shards)
        plus the shard router.  ``invoke(..., affinity_key=K)`` pins
        ``K``'s calls to its shard; keyless calls spread round-robin
        over shards.  The shard topology comes from this runtime's
        record of the pool, or — for a pool instantiated elsewhere —
        from the ``{name}$shards`` map in the shared store.
        """
        with self._lock:
            sharded = self._sharded.get(name)
        if sharded is not None:
            names = [p.name for p in sharded.shards]
        else:
            # The static shard map never changes after publication, so
            # the cached read makes repeat stub construction free.
            entry = self.store_cache.get(f"{name}$shards", default=None)
            if not entry:
                raise KeyError(f"unknown sharded pool: {name}")
            names = list(entry["pools"])
        stubs = [
            self.stub(
                shard, mode=mode, caller=caller, retry_policy=retry_policy
            )
            for shard in names
        ]
        return ShardedElasticStub(name, stubs)

    def stub(
        self,
        name: str,
        mode: BalancingMode = BalancingMode.ROUND_ROBIN,
        caller: str = "client",
        retry_policy: RetryPolicy | None = None,
        batcher: RequestBatcher | None = None,
    ) -> ElasticStub:
        """Client stub for a pool: one remote object, load balanced.

        The stub caches member identities against the pool's membership
        epoch in the shared store, so its common path is lock-free and
        identities are only re-fetched when the pool actually changed.
        The epoch itself is read through the runtime's watch cache:
        membership changes are pushed into the stub's process, and the
        steady-state invocation path performs **zero** store reads.

        Retries are bounded by ``retry_policy`` (defaults apply when
        omitted): the runtime wires the stub to its own clock so the
        policy's time budget runs on virtual time under simulation and
        wall time live; backoff actually sleeps only in live mode.

        Pass ``batcher`` to coalesce this stub's calls explicitly; with
        no argument a batcher is attached only when ``ERMI_BATCH_MAX``
        enables one.  Batched stubs are tracked so the drain protocol
        can flush their queued entries.
        """
        epoch_key = f"{name}$epoch"
        live = isinstance(self.scheduler, ThreadScheduler)
        cache = self.store_cache
        stub = ElasticStub(
            transport=self.transport,
            sentinel_resolver=lambda: self.registry.lookup(name),
            mode=mode,
            caller=caller,
            rng=self.rng.stream(f"stub:{name}:{caller}"),
            epoch_source=lambda: cache.get(epoch_key, default=0),
            retry_policy=retry_policy,
            clock=self.scheduler.clock,
            sleep=time.sleep if live else None,
            obs=self.obs,
            batcher=batcher,
        )
        if stub.batcher is not None:
            # Track it so the drain protocol can flush its queued batch
            # entries (pool._begin_drain → services.flush_client_batches).
            self._client_stubs.add(stub)
        return stub

    def _flush_client_batches(self) -> None:
        """Flush every live stub's pending batch entries (drain hook)."""
        for stub in list(self._client_stubs):
            stub.flush_pending()

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------

    def _schedule_tick(self, record: PoolRecord) -> None:
        if self._closed or record.pool.closed:
            return
        self.scheduler.call_after(
            record.pool.config.burst_interval, lambda: self._tick(record)
        )

    def _tick(self, record: PoolRecord) -> None:
        pool = record.pool
        if self._closed or pool.closed:
            return
        record.tick_count += 1
        self._repair(record)
        pool.roll_window()
        try:
            delta = record.policy.decide(pool)
        except Exception as exc:
            delta = 0  # a broken policy must not stop monitoring
            note_policy_error(pool, record.policy.name, exc)
        applied = self._apply_delta(record, delta)
        if self.obs is not None:
            self.obs.tracer.emit(
                "runtime", "scale-decision",
                pool=pool.name, policy=record.policy.name,
                delta=delta, applied=applied, size=pool.size(),
            )
        record.sentinel_agent.tick()
        for hook in list(record.on_tick):
            hook(pool)
        self._schedule_tick(record)
        return applied

    def _apply_delta(self, record: PoolRecord, delta: int) -> int:
        pool = record.pool
        cfg = pool.config
        current = pool.size()
        booting = pool.provisioned_size() - current
        target = max(cfg.min_pool_size, min(cfg.max_pool_size, current + delta))
        effective = target - current
        try:
            if effective > 0:
                # Do not double-request capacity that is still booting.
                want = max(0, effective - booting)
                return pool.grow(want, reason=record.policy.name) if want else 0
            if effective < 0:
                return -pool.shrink(-effective, reason=record.policy.name)
        except MasterUnavailableError:
            # Section 4.4: Mesos failures affect addition/removal of
            # objects until Mesos recovers; monitoring continues.
            record.paused_ticks += 1
        return 0

    def _repair(self, record: PoolRecord) -> int:
        """One failure-recovery pass: reap failed members, then
        re-provision back toward the minimum pool size.

        Growth only covers the gap below ``min`` — scaling *above* min
        stays the policy's job — and never double-requests capacity that
        is already booting.  A master outage pauses re-provisioning
        (section 4.4) but never the reap: dead members must leave the
        membership even when no replacement can be bought yet.
        """
        pool = record.pool
        if self._closed or pool.closed:
            return 0
        pool.reap_failures()
        deficit = pool.config.min_pool_size - pool.provisioned_size()
        if deficit <= 0:
            return 0
        try:
            return pool.grow(deficit, reason="failure-recovery")
        except MasterUnavailableError:
            record.paused_ticks += 1
            return 0

    def _schedule_repair(self, record: PoolRecord) -> None:
        """Run the dedicated repair loop when a cadence is configured."""
        if self.failure_check_interval is None:
            return
        if self._closed or record.pool.closed:
            return

        def check() -> None:
            if self._closed or record.pool.closed:
                return
            self._repair(record)
            self.scheduler.call_after(self.failure_check_interval, check)

        self.scheduler.call_after(self.failure_check_interval, check)

    def _schedule_sampling(self, record: PoolRecord) -> None:
        if self._closed or record.pool.closed:
            return
        interval = record.pool.config.burst_interval / self.samples_per_burst

        def sample() -> None:
            if self._closed or record.pool.closed:
                return
            record.pool.sample_utilization()
            self.scheduler.call_after(interval, sample)

        self.scheduler.call_after(interval, sample)

    # ------------------------------------------------------------------
    # store performance monitoring (paper section 4.2)
    # ------------------------------------------------------------------

    def _monitor_store(self) -> None:
        if self._closed:
            return
        total = self.store.total_ops()
        window_ops = total - self._store_ops_seen
        self._store_ops_seen = total
        per_node = window_ops / max(1, self.store.node_count())
        if self._store_ops_limit is not None and per_node > self._store_ops_limit:
            try:
                granted = self.master.request_slices(self.framework_name, 1)
            except MasterUnavailableError:
                granted = []
            if granted:
                self._store_slices.extend(granted)
                node = self.store.add_node()
                self.store_scale_events.append(
                    (self.scheduler.clock.now(), node)
                )
        self.scheduler.call_after(
            self._store_monitor_interval, self._monitor_store
        )

    def watch_cluster_utilization(
        self,
        high: float,
        low: float,
        on_high: Callable[[float], None],
        on_low: Callable[[float], None],
    ) -> None:
        """Administrator notifications when cluster slice utilization
        crosses the configured watermarks — "enabling the proactive
        addition of computing resources before the cluster runs out of
        slices" (section 4.2)."""
        self.master.watch_utilization(high, low, on_high, on_low)

    # ------------------------------------------------------------------
    # callbacks
    # ------------------------------------------------------------------

    def _on_membership_change(self, pool: ElasticObjectPool) -> None:
        sentinel = pool.sentinel()
        if self.obs is not None:
            # Royal-hierarchy election: leadership moved iff the lowest
            # active uid changed since we last looked.
            uid = None if sentinel is None else sentinel.uid
            if uid != self._last_sentinel.get(pool.name):
                self._last_sentinel[pool.name] = uid
                if uid is not None:
                    self.obs.tracer.emit(
                        "runtime", "sentinel-elected",
                        pool=pool.name, uid=uid,
                    )
        if sentinel is not None:
            self.registry.rebind(pool.name, sentinel.ref())
        else:
            try:
                self.registry.unbind(pool.name)
            except Exception:
                pass
        # With a repair cadence armed, a membership change that leaves
        # the pool short of ``min`` triggers repair immediately instead
        # of waiting out the interval.  Deferred via the scheduler: this
        # callback fires from inside _terminate/_activate and growing the
        # pool mid-termination would re-enter the pool's lifecycle.
        if (
            self.failure_check_interval is not None
            and not self._closed
            and not pool.closed
            and pool.provisioned_size() < pool.config.min_pool_size
        ):
            with self._lock:
                record = self._pools.get(pool.name)
            if record is not None:
                self.scheduler.call_after(0.0, lambda: self._repair(record))

    def _on_slice_lost(self, sl: Slice) -> None:
        with self._lock:
            records = list(self._pools.values())
        for record in records:
            record.pool.handle_slice_lost(sl)

    def _default_utilization(
        self, member: PoolMember
    ) -> UtilizationSource | None:
        # Any live (concurrent) transport gets queue-depth utilization;
        # simulation installs its own sources.
        if getattr(self.transport, "concurrent", False) and member.skeleton:
            return QueueUtilization(member.skeleton)
        return None

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop control loops, terminate pools, release every slice."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            records = list(self._pools.values())
        for record in records:
            record.pool.shutdown()
        for sl in self._store_slices:
            try:
                self.master.release_slice(self.framework_name, sl)
            except Exception:
                pass
        self.store_cache.close()
        if isinstance(self.scheduler, ThreadScheduler):
            self.scheduler.shutdown()
        stop_transport = getattr(self.transport, "shutdown", None)
        if stop_transport is not None:
            stop_transport()
        # Hand the frozen heap back to the collector, so a runtime that
        # is shut down and dropped is reclaimed by the next pass.  This
        # unfreezes everything, including what the application froze.
        gc.unfreeze()
