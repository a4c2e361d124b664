"""The seeded traced scenario behind ``python -m repro trace``.

A deterministic simulated run instrumented end to end with one
:class:`~repro.obs.Observability`: an elastic pool rides a scripted load
curve (grow under load, shrink when it fades), a client pings it through
the retrying :class:`~repro.core.balancer.ElasticStub`, a second client
issues pipelined ``invoke_async`` bursts through an explicit
:class:`~repro.rmi.batching.RequestBatcher` (so the summary's
"batching" section is populated), a lock-guarded
counter method exercises the distributed lock manager, and mid-run the
*sentinel* and its two lowest-uid neighbours are crashed so the trace
captures failure detection, reaping, re-election, recovery growth, and
masked client retries.  Three adjacent victims with detection on a 1 s
cadence make a client-visible dead hit (and therefore ``retry`` events)
structurally certain, not seed-dependent: at most two of the stub's
round-robin slots stay alive, and several pings land inside the window.

Everything runs on a :class:`~repro.sim.kernel.Kernel` with the tracer
clocked by the kernel's virtual clock, so two runs with the same seed
produce **byte-identical** JSONL traces (the CI ``obs-smoke`` gate).
Events carry logical identities only — member uids, node names, endpoint
names — never process-global counters.

Kept out of :mod:`repro.obs`'s namespace because it imports
:mod:`repro.core` (same layering rule as :mod:`repro.faults.scenario`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.cluster.provisioner import ContainerProvisioner
from repro.core.api import ElasticObject
from repro.core.monitor import ManualUtilization
from repro.core.runtime import ElasticRuntime
from repro.faults.injector import FaultInjector
from repro.kvstore.store import HyperStore
from repro.obs import Observability
from repro.obs.export import summarize_trace, to_jsonl
from repro.rmi.batching import RequestBatcher
from repro.rmi.future import gather
from repro.sim.kernel import Kernel
from repro.sim.rng import RngStreams

POOL_NAME = "obs"
POOL_MIN = 2
POOL_MAX = 8
BURST_INTERVAL = 5.0

# The batched client: every BATCH_TICK seconds it issues BATCH_WINDOW
# pipelined ``invoke_async`` pings and gathers them, so each burst
# coalesces into batch wire messages (BATCH_WINDOW < BATCH_MAX keeps the
# final flush on the gather's wait hook — the sweep the summary's
# "batching" section measures).
BATCH_WINDOW = 6
BATCH_MAX = 8
BATCH_TICK = 1.0

# The scripted load curve: (start time, member CPU %, members required).
# ``required`` is the ground-truth demand the agility samples compare
# provisioned capacity against (the paper's req_min).
PHASES = (
    (0.0, 30.0, 2),
    (20.0, 95.0, 5),
    (65.0, 10.0, 2),
)


class ObsWorkload(ElasticObject):
    """Echo plus a lock-guarded shared counter, so the trace shows both
    the invocation path and the lock/store substrates."""

    def __init__(self) -> None:
        super().__init__()
        self.set_min_pool_size(POOL_MIN)
        self.set_max_pool_size(POOL_MAX)
        self.set_burst_interval(BURST_INTERVAL)
        self.set_cpu_incr_threshold(90.0)
        self.set_cpu_decr_threshold(40.0)

    def ping(self, value: int) -> int:
        return value

    def bump(self) -> int:
        """Increment a shared counter under the distributed lock —
        the preprocessor's ``synchronized`` expansion, written out."""
        ctx = self._ermi_ctx
        owner = ctx.lock_owner_id()
        ctx.locks.lock(f"{POOL_NAME}-counter", owner)
        try:
            return ctx.store.update(
                f"{POOL_NAME}$counter", lambda v: (v or 0) + 1, default=0
            )
        finally:
            ctx.locks.unlock(f"{POOL_NAME}-counter", owner)


def _phase_at(now: float) -> tuple[float, int]:
    """(cpu%, members required) for the scripted instant ``now``."""
    cpu, required = PHASES[0][1], PHASES[0][2]
    for start, phase_cpu, phase_req in PHASES:
        if now >= start:
            cpu, required = phase_cpu, phase_req
    return cpu, required


@dataclass
class TracedRun:
    """Everything ``python -m repro trace`` needs from one run."""

    seed: int
    duration: float
    events: list[Any]               # TraceEvent, in seq order
    dropped: int
    metrics: dict[str, Any]         # MetricsRegistry.snapshot()
    client: dict[str, int]
    final_size: int

    def to_jsonl(self) -> str:
        return to_jsonl(self.events)

    def summary(self) -> dict[str, Any]:
        return summarize_trace(
            self.events,
            seed=self.seed,
            dropped=self.dropped,
            metrics=self.metrics,
        )

    def summary_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)

    def describe(self) -> str:
        counts = self.summary()["counts"]
        return (
            f"trace seed={self.seed}: {len(self.events)} events, "
            f"{self.client['calls']} calls "
            f"({self.client['errors']} errors), "
            f"{counts.get('retry', 0)} retries, "
            f"final pool size {self.final_size}"
        )


def run_traced_scenario(
    seed: int = 0,
    duration: float = 90.0,
    fault_at: float = 55.1,
    client_interval: float = 0.25,
    sample_interval: float = 1.0,
) -> TracedRun:
    """Run the traced scenario once; deterministic in ``seed``."""
    if duration <= fault_at:
        raise ValueError(f"duration {duration} must exceed fault_at {fault_at}")
    kernel = Kernel()
    rng = RngStreams(seed)
    obs = Observability(clock=kernel.clock)
    runtime = ElasticRuntime.simulated(
        kernel,
        nodes=6,
        slices_per_node=4,
        provisioner=ContainerProvisioner(
            rng.stream("provisioner"),
            base_s=1.0,
            slope_s=2.0,
            jitter_s=0.25,
            cap_s=4.0,
        ),
        rng=rng,
        store=HyperStore(nodes=3),
        failure_check_interval=1.0,
        observability=obs,
    )
    pool = runtime.new_pool(ObsWorkload, name=POOL_NAME)
    injector = FaultInjector(runtime, rng=rng.stream("injector")).install()
    stub = runtime.stub(POOL_NAME, caller="obs-client")
    # A second, batched client: its pings coalesce through an explicit
    # RequestBatcher (env-independent, so traces don't vary with
    # ERMI_BATCH_MAX) wired to the same Observability — every
    # flushed wire message emits a ``batch`` event the summary folds
    # into its "batching" section.
    batch_stub = runtime.stub(
        POOL_NAME,
        caller="obs-batch",
        batcher=RequestBatcher(
            runtime.transport,
            max_batch=BATCH_MAX,
            caller="obs-batch",
            obs=obs,
        ),
    )

    client = {"calls": 0, "errors": 0, "wrong_results": 0, "batched": 0}

    def tick_client() -> None:
        client["calls"] += 1
        seqno = client["calls"]
        try:
            # Alternate the pure echo with the lock-guarded counter so
            # both code paths appear in every trace.
            if seqno % 4 == 0:
                stub.bump()
            elif stub.ping(seqno) != seqno:
                client["wrong_results"] += 1
        except Exception:
            client["errors"] += 1
        if kernel.clock.now() + client_interval <= duration:
            kernel.call_after(client_interval, tick_client)

    kernel.call_at(2.0, tick_client)

    def tick_batch() -> None:
        base = client["batched"]
        futures = [
            batch_stub.invoke_async("ping", base + j)
            for j in range(BATCH_WINDOW)
        ]
        client["batched"] += BATCH_WINDOW
        try:
            results = gather(futures)
            if results != [base + j for j in range(BATCH_WINDOW)]:
                client["wrong_results"] += 1
        except Exception:
            client["errors"] += 1
        if kernel.clock.now() + BATCH_TICK <= duration:
            kernel.call_after(BATCH_TICK, tick_batch)

    kernel.call_at(3.0, tick_batch)

    def drive_load() -> None:
        now = kernel.clock.now()
        cpu, required = _phase_at(now)
        for member in pool.active_members():
            if isinstance(member.utilization, ManualUtilization):
                member.utilization.set(cpu)
        obs.tracer.emit(
            "metrics", "agility-sample",
            cap_prov=pool.provisioned_size(), req_min=required,
        )
        obs.registry.gauge(f"pool.demand.{POOL_NAME}").set(required, at=now)
        if now + sample_interval <= duration:
            kernel.call_after(sample_interval, drive_load)

    kernel.call_at(0.0, drive_load)

    def crash_members() -> None:
        # The sentinel and its two lowest-uid neighbours: kills the
        # leader (forcing re-election) and occupies three adjacent
        # round-robin slots (forcing a client retry before detection).
        victims = pool.active_members()[:3]
        for member in victims:
            if member.endpoint_id is not None:
                runtime.transport.kill(member.endpoint_id)
        injector.record(
            "member-crash",
            f"pool={POOL_NAME} uids={[m.uid for m in victims]}",
        )

    injector.schedule(fault_at, crash_members)

    kernel.run_until(duration)

    # Snapshot *before* shutdown: teardown drains members and would
    # append events that belong to no phase of the scripted run.
    events = list(obs.tracer.events())
    dropped = obs.tracer.dropped()
    metrics = obs.registry.snapshot()
    final_size = pool.size()
    injector.uninstall()
    runtime.shutdown()
    return TracedRun(
        seed=seed,
        duration=duration,
        events=events,
        dropped=dropped,
        metrics=metrics,
        client=client,
        final_size=final_size,
    )
