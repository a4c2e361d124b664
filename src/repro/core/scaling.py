"""Scaling policies: how the runtime decides to change a pool's size.

Evaluated once per burst interval.  The four mechanisms of the paper
(sections 3.1-3.3), in the precedence order the runtime applies:

1. :class:`DeciderPolicy` — an application-level :class:`Decider` is
   attached: the runtime asks it for the *desired* size of the pool and
   applies the difference.
2. :class:`FineGrainedPolicy` — the class overrides ``change_pool_size``:
   every member is polled, and the votes (positive or negative integers)
   are **averaged** to determine how many objects to add or remove.
   Overriding ``change_pool_size`` disables CPU/memory scaling.
3. :class:`CoarseGrainedPolicy` — explicit CPU and/or RAM thresholds set
   through the Figure 3 setters; thresholds combine with logical OR.
4. :class:`ImplicitPolicy` — the default: add one object when average
   CPU utilization exceeds 90%, remove one when it falls below 60%,
   evaluated every 60 s.

All deltas are later clamped to ``[min_pool_size, max_pool_size]`` by the
runtime; policies themselves return raw intent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.core.api import Decider, ElasticConfig, ElasticObject

if TYPE_CHECKING:
    from repro.core.pool import ElasticObjectPool


class ScalingPolicy(Protocol):
    """One burst-interval decision: a signed member-count delta."""

    name: str

    def decide(self, pool: "ElasticObjectPool") -> int: ...


def note_policy_error(
    pool: "ElasticObjectPool", policy: str, error: Exception
) -> None:
    """A policy (or one voter of it) failed and abstained: count and
    trace it.  Abstaining keeps monitoring alive; it must not also keep
    the failure out of sight.  No-op without an Observability."""
    obs = pool.services.obs
    if obs is not None:
        obs.registry.counter("runtime.policy_errors").inc()
        obs.tracer.emit(
            "runtime", "policy-error",
            pool=pool.name, policy=policy, error=type(error).__name__,
        )


class ImplicitPolicy:
    """Paper defaults: +1 over 90% average CPU, -1 under 60%."""

    name = "implicit"

    def __init__(self, cpu_incr: float = 90.0, cpu_decr: float = 60.0) -> None:
        self.cpu_incr = cpu_incr
        self.cpu_decr = cpu_decr

    def decide(self, pool: "ElasticObjectPool") -> int:
        cpu = pool.avg_cpu_usage()
        if cpu > self.cpu_incr:
            return 1
        if cpu < self.cpu_decr:
            return -1
        return 0


class CoarseGrainedPolicy:
    """Explicit CPU/RAM thresholds, combined with logical OR (section 3.3).

    Increase by one when average CPU exceeds the CPU-increase threshold
    *or* average RAM exceeds the RAM-increase threshold; decrease by one
    when CPU is below the CPU-decrease threshold *and* (if configured)
    RAM is below the RAM-decrease threshold — shrinking on OR would
    remove capacity a still-loaded resource needs.
    """

    name = "coarse-grained"

    def __init__(self, config: ElasticConfig) -> None:
        self.config = config

    def decide(self, pool: "ElasticObjectPool") -> int:
        cfg = self.config
        cpu = pool.avg_cpu_usage()
        ram = pool.avg_ram_usage()
        grow = cpu > cfg.cpu_incr_threshold
        if cfg.ram_incr_threshold is not None:
            grow = grow or ram > cfg.ram_incr_threshold
        if grow:
            return 1
        shrink = cpu < cfg.cpu_decr_threshold
        if cfg.ram_decr_threshold is not None:
            shrink = shrink and ram < cfg.ram_decr_threshold
        return -1 if shrink else 0


class FineGrainedPolicy:
    """Poll ``change_pool_size`` on every member and average the votes.

    A member whose vote raises is counted as 0 (abstain, and reported as
    a policy error) — a misbehaving member must not wedge the pool.  The
    averaged value is rounded toward zero, matching "the values returned
    by the various objects in the pool are averaged to determine the
    number of objects that have to be added/removed".
    """

    name = "fine-grained"

    def decide(self, pool: "ElasticObjectPool") -> int:
        votes: list[int] = []
        for member in pool.active_members():
            instance = member.instance
            if instance is None:
                continue
            try:
                vote = instance.change_pool_size()
            except Exception as exc:
                vote = 0
                note_policy_error(pool, self.name, exc)
            votes.append(int(vote) if vote is not None else 0)
        if not votes:
            return 0
        return int(sum(votes) / len(votes))


class DeciderPolicy:
    """Application-level decisions via a :class:`Decider` (section 3.3).

    The decider returns the *desired* pool size; the policy converts it to
    a delta.  Decider errors abstain, and are reported as policy errors.
    """

    name = "decider"

    def __init__(self, decider: Decider) -> None:
        self.decider = decider

    def decide(self, pool: "ElasticObjectPool") -> int:
        try:
            desired = int(self.decider.get_desired_pool_size(pool))
        except Exception as exc:
            note_policy_error(pool, self.name, exc)
            return 0
        return desired - pool.size()


def select_policy(
    cls: type[ElasticObject],
    config: ElasticConfig,
    decider: Decider | None,
) -> ScalingPolicy:
    """Pick the single decision mechanism for an elastic class.

    Precedence: attached Decider > overridden change_pool_size >
    explicit thresholds > implicit defaults.
    """
    if decider is not None:
        return DeciderPolicy(decider)
    if cls.overrides_change_pool_size():
        return FineGrainedPolicy()
    if config.explicit_thresholds:
        return CoarseGrainedPolicy(config)
    return ImplicitPolicy()
