"""Run one scenario against the elastic runtime and grade the result.

The simulated path is the replay contract: a :class:`ScenarioSpec` plus
a seed fully determines the run.  Everything shares one
:class:`~repro.sim.kernel.Kernel` — the runtime's sampling/scaling/repair
ticks, the provisioner's jittered container starts, the fault schedule,
and each tenant's :class:`~repro.scenarios.engine.OpenLoopEngine` — and
every random draw comes from a named :class:`~repro.sim.rng.RngStreams`
substream, so two runs with the same seed produce byte-identical
``repro.obs/v1`` summaries.  Every metric in them is virtual-time, hence
machine-independent: the committed ``SCENARIO_<name>.json`` files are
the summaries ``python -m repro scenario all --summary-dir .`` writes,
and the CI ``scenario-replay`` job compares a fresh run with them byte
for byte.

Elasticity is closed-loop even though the load is open-loop: each
second the runner samples every member's modeled server (busy/idle)
into its :class:`~repro.core.monitor.ManualUtilization`; the pool's
monitoring window averages those samples into the busy fraction the
coarse-grained policy thresholds against, and scaling decisions feed
back into the engine through its live routing table.  Ground-truth
capacity demand (the paper's req_min) is emitted as ``agility-sample``
trace events on the scenario's sample cadence.

Live mode replays the same arrival stream wall-clock against
``ElasticRuntime.local(transport="asyncio")``, time-compressed so a
long virtual trace fits in a few seconds; it supports single-tenant,
fault-free scenarios and makes no determinism promise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from repro.cluster.provisioner import ContainerProvisioner
from repro.core.api import ElasticObject
from repro.core.monitor import ManualUtilization
from repro.core.pool import ElasticObjectPool, PoolMember
from repro.core.runtime import ElasticRuntime
from repro.experiments.benchreport import percentile
from repro.faults.injector import FaultInjector
from repro.kvstore.store import HyperStore
from repro.metrics.agility import AgilityTracker
from repro.obs import Observability
from repro.obs.export import summarize_trace
from repro.scenarios.catalog import (
    ScenarioSpec,
    TenantSpec,
    get_scenario,
    zipf_sampler,
)
from repro.scenarios.engine import (
    EngineStats,
    LiveLoadDriver,
    OpenLoopEngine,
    ServiceModel,
)
from repro.sim.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.workloads.patterns import CompressedPattern, ScaledPattern

UTILIZATION_TICK_S = 1.0


class ScenarioError(Exception):
    """A scenario cannot run as requested."""


def _service_model(tenant: TenantSpec) -> ServiceModel:
    svc = tenant.service
    return ServiceModel(
        base_s=svc.base_s,
        hit_s=svc.hit_s,
        cache_capacity=svc.cache_capacity,
        target_utilization=svc.target_utilization,
        nominal_s=svc.nominal_s,
    )


def _worker_class(tenant: TenantSpec) -> type[ElasticObject]:
    """An ElasticObject subclass carrying the tenant's pool thresholds."""
    pool = tenant.pool

    class ScenarioWorker(ElasticObject):
        def __init__(self) -> None:
            super().__init__()
            self.set_min_pool_size(pool.min_size)
            self.set_max_pool_size(pool.max_size)
            self.set_burst_interval(pool.burst_interval_s)
            self.set_cpu_incr_threshold(pool.cpu_incr)
            self.set_cpu_decr_threshold(pool.cpu_decr)

        def op(self, key: str) -> str:
            return key

    ScenarioWorker.__name__ = f"ScenarioWorker[{tenant.name}]"
    return ScenarioWorker


@dataclass
class TenantResult:
    """One tenant's outcome."""

    name: str
    app: str
    stats: EngineStats
    agility: AgilityTracker
    final_size: int
    final_sizes: list[int]  # per shard (length 1 for flat pools)
    base_service_s: float   # scaled: the run's actual per-op cost
    qos_max_p99_x: float
    qos_min_completion: float

    def latency_summary(self) -> dict[str, Any]:
        lat = self.stats.latencies
        return {
            "count": len(lat),
            "mean_ms": round(
                (sum(lat) / len(lat) if lat else 0.0) * 1e3, 6
            ),
            "p50_ms": round(percentile(lat, 0.50) * 1e3, 6),
            "p99_ms": round(percentile(lat, 0.99) * 1e3, 6),
            "p999_ms": round(percentile(lat, 0.999) * 1e3, 6),
            "max_ms": round(max(lat, default=0.0) * 1e3, 6),
        }

    def completion_ratio(self) -> float:
        if self.stats.arrivals == 0:
            return 1.0
        return self.stats.completed / self.stats.arrivals

    def qos_met(self) -> bool:
        p99 = percentile(self.stats.latencies, 0.99)
        bound = self.qos_max_p99_x * self.base_service_s
        return (
            p99 <= bound
            and self.completion_ratio() >= self.qos_min_completion
        )


@dataclass
class ScenarioResult:
    """Everything a scenario run produced."""

    spec: ScenarioSpec
    seed: int
    scale: float
    mode: str
    tenants: dict[str, TenantResult]
    events: list[Any]
    dropped: int
    metrics: dict[str, Any]

    # -- aggregates ------------------------------------------------------

    def merged_latencies(self) -> list[float]:
        merged: list[float] = []
        for tenant in self.tenants.values():
            merged.extend(tenant.stats.latencies)
        return merged

    def total(self, field_name: str) -> int:
        return sum(
            getattr(t.stats, field_name) for t in self.tenants.values()
        )

    def qos_met(self) -> bool:
        return all(t.qos_met() for t in self.tenants.values())

    def average_agility(self) -> float:
        values = [
            t.agility.average_agility() for t in self.tenants.values()
        ]
        return sum(values) / len(values) if values else 0.0

    # -- the repro.obs/v1 summary ---------------------------------------

    def summary(self) -> dict[str, Any]:
        doc = summarize_trace(
            self.events,
            seed=self.seed,
            dropped=self.dropped,
            metrics=self.metrics,
        )
        lat = self.merged_latencies()
        arrivals = self.total("arrivals")
        completed = self.total("completed")
        doc["latency"] = {
            "count": len(lat),
            "mean_ms": round(
                (sum(lat) / len(lat) if lat else 0.0) * 1e3, 6
            ),
            "p50_ms": round(percentile(lat, 0.50) * 1e3, 6),
            "p99_ms": round(percentile(lat, 0.99) * 1e3, 6),
            "p999_ms": round(percentile(lat, 0.999) * 1e3, 6),
            "max_ms": round(max(lat, default=0.0) * 1e3, 6),
        }
        doc["qos"] = {
            "offered": arrivals,
            "completed": completed,
            "completion_ratio": round(
                completed / arrivals if arrivals else 1.0, 6
            ),
            "throughput_ops_s": round(
                completed / self.spec.duration_s, 6
            ),
            "met": self.qos_met(),
        }
        doc["scenario"] = {
            "name": self.spec.name,
            "title": self.spec.title,
            "mode": self.mode,
            "scale": self.scale,
            "users": self.spec.users,
            "duration_s": self.spec.duration_s,
            "drain_s": self.spec.drain_s,
            "redispatched": self.total("redispatched"),
            "herd_arrivals": self.total("herd_arrivals"),
            "average_agility": round(self.average_agility(), 6),
            "tenants": {
                name: {
                    "app": t.app,
                    "arrivals": t.stats.arrivals,
                    "completed": t.stats.completed,
                    "completion_ratio": round(t.completion_ratio(), 6),
                    "cache_hit_rate": round(
                        t.stats.cache_hit_rate(), 6
                    ),
                    "latency": t.latency_summary(),
                    "average_agility": round(
                        t.agility.average_agility(), 6
                    ),
                    "qos_met": t.qos_met(),
                    "final_sizes": t.final_sizes,
                }
                for name, t in sorted(self.tenants.items())
            },
        }
        return doc

    def summary_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)

    def describe(self) -> str:
        lat = self.merged_latencies()
        sizes = {
            name: t.final_sizes for name, t in sorted(self.tenants.items())
        }
        return (
            f"scenario {self.spec.name} seed={self.seed} "
            f"scale={self.scale:g} mode={self.mode}: "
            f"{self.total('arrivals')} arrivals, "
            f"{self.total('completed')} completed, "
            f"p50={percentile(lat, 0.5) * 1e3:.1f}ms "
            f"p99={percentile(lat, 0.99) * 1e3:.1f}ms "
            f"p999={percentile(lat, 0.999) * 1e3:.1f}ms, "
            f"agility={self.average_agility():.2f}, "
            f"qos={'met' if self.qos_met() else 'MISSED'}, "
            f"final sizes {sizes}"
        )


# ----------------------------------------------------------------------
# the simulated path
# ----------------------------------------------------------------------


@dataclass
class _TenantRun:
    """Wiring for one tenant inside a running scenario."""

    spec: TenantSpec
    engine: OpenLoopEngine
    agility: AgilityTracker
    pools: list[ElasticObjectPool]   # one per shard (one for flat)
    sharded: Any                     # ShardedElasticPool | None

    def flat_members(self) -> list[tuple[tuple[str, int], PoolMember]]:
        """(member_key, member) for every active member, shard order."""
        out = []
        for pool in self.pools:
            for member in pool.active_members():
                out.append(((pool.name, member.uid), member))
        return out

    def provisioned_size(self) -> int:
        return sum(pool.provisioned_size() for pool in self.pools)

    def total_min(self) -> int:
        return self.spec.pool.total_min()

    def sizes(self) -> list[int]:
        return [pool.size() for pool in self.pools]


def _build_tenant(
    runtime: ElasticRuntime,
    kernel: Kernel,
    streams: RngStreams,
    spec: ScenarioSpec,
    tenant: TenantSpec,
    scale: float,
) -> _TenantRun:
    worker = _worker_class(tenant)
    sharded = None
    if tenant.pool.shards > 1:
        sharded = runtime.new_sharded_pool(
            worker, name=tenant.name, shards=tenant.pool.shards
        )
        pools = list(sharded.shards)
    else:
        pools = [runtime.new_pool(worker, name=tenant.name)]

    def members_fn() -> list[tuple[tuple[str, int], int]]:
        table = []
        for index, pool in enumerate(pools):
            for member in pool.active_members():
                table.append(((pool.name, member.uid), index))
        return table

    shard_for = None
    if sharded is not None and tenant.keys is not None and tenant.keys.affinity:
        shard_for = sharded.shard_for
    key_sampler = None
    if tenant.keys is not None:
        key_sampler = zipf_sampler(tenant.keys.keys, tenant.keys.zipf_s)

    engine = OpenLoopEngine(
        kernel,
        tenant.pattern(),
        _service_model(tenant),
        streams.stream(f"load:{tenant.name}"),
        members_fn,
        shard_for=shard_for,
        key_sampler=key_sampler,
        rate_factor=scale,
        service_factor=1.0 / scale,
    )
    return _TenantRun(
        spec=tenant,
        engine=engine,
        agility=AgilityTracker(),
        pools=pools,
        sharded=sharded,
    )


def _schedule_faults(
    runtime: ElasticRuntime,
    injector: FaultInjector,
    run: _TenantRun,
    spec: ScenarioSpec,
    scale: float,
) -> None:
    for fault in run.spec.faults:
        def fire(fault=fault, run=run) -> None:
            members = run.flat_members()
            victims = members[: fault.kill_members]
            for _, member in victims:
                if member.endpoint_id is not None:
                    runtime.transport.kill(member.endpoint_id)
            herd = int(round(
                fault.herd_burst * spec.model_factor * scale
            ))
            moved = run.engine.on_members_lost(
                [key for key, _ in victims],
                reconnect_delay_s=fault.reconnect_delay_s,
                reconnect_spread_s=fault.reconnect_spread_s,
                herd_burst=herd,
            )
            injector.record(
                "member-crash",
                f"tenant={run.spec.name} "
                f"uids={[m.uid for _, m in victims]} "
                f"reconnects={moved} herd={herd}",
            )

        injector.schedule(fault.at_s, fire)


def _run_sim(
    spec: ScenarioSpec, seed: int, scale: float
) -> ScenarioResult:
    kernel = Kernel()
    streams = RngStreams(seed)
    obs = Observability(clock=kernel.clock)
    runtime = ElasticRuntime.simulated(
        kernel,
        nodes=spec.nodes,
        slices_per_node=spec.slices_per_node,
        provisioner=ContainerProvisioner(
            streams.stream("provisioner"),
            base_s=1.0,
            slope_s=2.0,
            jitter_s=0.25,
            cap_s=4.0,
        ),
        rng=streams,
        store=HyperStore(nodes=3),
        failure_check_interval=1.0,
        observability=obs,
    )
    injector = FaultInjector(
        runtime, rng=streams.stream("injector")
    ).install()
    runs = [
        _build_tenant(runtime, kernel, streams, spec, tenant, scale)
        for tenant in spec.tenants
    ]
    for run in runs:
        run.engine.start(until=spec.duration_s)
        _schedule_faults(runtime, injector, run, spec, scale)

    horizon = spec.duration_s + spec.drain_s

    def utilization_tick() -> None:
        # The modeled servers' busy/idle state feeds the pools'
        # monitoring windows; averaged over the burst interval this is
        # the busy fraction the CPU thresholds compare against.
        for run in runs:
            for key, member in run.flat_members():
                if isinstance(member.utilization, ManualUtilization):
                    member.utilization.set(
                        run.engine.utilization_pct(key)
                    )
        if kernel.clock.now() + UTILIZATION_TICK_S <= horizon:
            kernel.call_after(UTILIZATION_TICK_S, utilization_tick)

    kernel.call_at(0.0, utilization_tick)

    def agility_tick() -> None:
        now = kernel.clock.now()
        for run in runs:
            rate = (
                run.engine.offered_rate(now)
                if now <= spec.duration_s
                else 0.0
            )
            req_min = max(
                run.total_min(),
                math.ceil(rate / run.engine.capacity_per_member()),
            )
            cap_prov = run.provisioned_size()
            run.agility.record(now, cap_prov, req_min)
            obs.tracer.emit(
                "metrics",
                "agility-sample",
                cap_prov=cap_prov,
                req_min=req_min,
                tenant=run.spec.name,
            )
            obs.registry.gauge(
                f"scenario.offered.{run.spec.name}"
            ).set(round(rate, 6), at=now)
        if now + spec.sample_interval_s <= horizon:
            kernel.call_after(spec.sample_interval_s, agility_tick)

    kernel.call_at(0.0, agility_tick)

    kernel.run_until(horizon)

    # Snapshot before shutdown: teardown drains members and would
    # append events that belong to no phase of the scenario.
    events = list(obs.tracer.events())
    dropped = obs.tracer.dropped()
    metrics = obs.registry.snapshot()
    tenants = {
        run.spec.name: TenantResult(
            name=run.spec.name,
            app=run.spec.app,
            stats=run.engine.stats,
            agility=run.agility,
            final_size=sum(run.sizes()),
            final_sizes=run.sizes(),
            base_service_s=run.spec.service.base_s / scale,
            qos_max_p99_x=run.spec.qos.max_p99_x_service,
            qos_min_completion=run.spec.qos.min_completion,
        )
        for run in runs
    }
    injector.uninstall()
    runtime.shutdown()
    return ScenarioResult(
        spec=spec,
        seed=seed,
        scale=scale,
        mode="sim",
        tenants=tenants,
        events=events,
        dropped=dropped,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# the live path
# ----------------------------------------------------------------------


def _run_live(
    spec: ScenarioSpec,
    seed: int,
    scale: float,
    live_duration_s: float,
    transport: str = "asyncio",
) -> ScenarioResult:
    if len(spec.tenants) != 1 or spec.tenants[0].faults:
        raise ScenarioError(
            "live mode supports single-tenant, fault-free scenarios; "
            f"{spec.name!r} is not one"
        )
    tenant = spec.tenants[0]
    if tenant.pool.shards > 1:
        raise ScenarioError("live mode runs on flat pools only")
    compress = spec.duration_s / live_duration_s
    pattern = CompressedPattern(
        ScaledPattern(tenant.pattern(), scale), compress
    )
    service_s = tenant.service.base_s / scale

    class LiveWorker(ElasticObject):
        def __init__(self) -> None:
            super().__init__()
            self.set_min_pool_size(tenant.pool.min_size)
            self.set_max_pool_size(tenant.pool.max_size)
            self.set_burst_interval(tenant.pool.burst_interval_s)
            self.set_cpu_incr_threshold(tenant.pool.cpu_incr)
            self.set_cpu_decr_threshold(tenant.pool.cpu_decr)

        async def op(self, key: str) -> str:
            import asyncio

            await asyncio.sleep(service_s)
            return key

    runtime = ElasticRuntime.local(
        nodes=spec.nodes,
        slices_per_node=spec.slices_per_node,
        seed=seed,
        transport=transport,
    )
    try:
        pool = runtime.new_pool(LiveWorker, name=tenant.name)
        stub = runtime.stub(tenant.name, caller="scenario-live")
        key_sampler = None
        if tenant.keys is not None:
            key_sampler = zipf_sampler(
                tenant.keys.keys, tenant.keys.zipf_s
            )
        driver = LiveLoadDriver(
            stub,
            pattern,
            RngStreams(seed).stream(f"load:{tenant.name}"),
            key_sampler=key_sampler,
        )
        stats = driver.run(live_duration_s)
        final_sizes = [pool.size()]
    finally:
        runtime.shutdown()
    result_spec = ScenarioSpec(
        name=spec.name,
        title=spec.title,
        users=spec.users,
        ops_per_user_s=spec.ops_per_user_s,
        model_factor=spec.model_factor,
        duration_s=live_duration_s,
        tenants=spec.tenants,
        seed=seed,
        drain_s=0.0,
        sample_interval_s=spec.sample_interval_s,
        nodes=spec.nodes,
        slices_per_node=spec.slices_per_node,
    )
    tenants = {
        tenant.name: TenantResult(
            name=tenant.name,
            app=tenant.app,
            stats=stats,
            agility=AgilityTracker(),
            final_size=final_sizes[0],
            final_sizes=final_sizes,
            base_service_s=service_s,
            qos_max_p99_x=tenant.qos.max_p99_x_service,
            qos_min_completion=tenant.qos.min_completion,
        )
    }
    return ScenarioResult(
        spec=result_spec,
        seed=seed,
        scale=scale,
        mode="live",
        tenants=tenants,
        events=[],
        dropped=0,
        metrics={},
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec | str,
    seed: int | None = None,
    scale: float = 1.0,
    mode: str = "sim",
    live_duration_s: float = 8.0,
) -> ScenarioResult:
    """Run one scenario; deterministic in ``(spec, seed, scale)`` for
    ``mode="sim"``.

    ``scale`` < 1 shrinks the simulated event count without changing the
    dynamics: offered rate is multiplied by ``scale`` and per-operation
    service time divided by it, so utilization, req_min, and pool-size
    trajectories are unchanged while arrivals (and wall-clock cost)
    scale down — the ``bench-smoke`` configuration.
    """
    if isinstance(spec, str):
        spec = get_scenario(spec)
    if seed is None:
        seed = spec.seed
    if scale <= 0:
        raise ScenarioError(f"scale must be positive: {scale}")
    if mode == "sim":
        return _run_sim(spec, seed, scale)
    if mode == "live":
        return _run_live(spec, seed, scale, live_duration_s)
    raise ScenarioError(f"unknown mode {mode!r} (sim or live)")
