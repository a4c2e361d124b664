"""The ElasticRMI server-side API (paper Figure 3).

Java names map to Python names mechanically (``setMinPoolSize`` →
``set_min_pool_size``, ``changePoolSize`` → ``change_pool_size``, …); the
semantics are the paper's:

- an elastic class extends :class:`ElasticObject` (and thereby the RMI
  :class:`~repro.rmi.remote.Remote` marker through :class:`Elastic`);
- pool limits, the burst interval, and CPU/RAM thresholds are configured
  by calling setters, typically in ``__init__``;
- ``change_pool_size`` may be overridden for fine-grained scaling; doing
  so *disables* CPU/RAM threshold scaling (the paper allows exactly one
  decision mechanism per class);
- a :class:`Decider` may be attached for application-level decisions that
  span multiple pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import PoolConfigurationError, ScalingDisabledError
from repro.rmi.remote import Remote, RemoteRef

if TYPE_CHECKING:
    from repro.core.pool import ElasticObjectPool


class Elastic(Remote):
    """Marker for elastic classes (``interface Elastic extends Remote``).

    The preprocessor in the paper keys off this marker; here it is the
    base the metaclass machinery and the runtime check for.
    """


@dataclass
class MethodCallStat:
    """One entry of ``get_method_call_stats()``: averages over the burst
    interval just ended."""

    calls: int = 0              # total invocations across the pool
    rate: float = 0.0           # invocations per second
    mean_latency: float = 0.0   # seconds
    errors: int = 0

    def latency(self) -> float:
        """Paper spelling (Figure 5 calls ``getLatency()``)."""
        return self.mean_latency


@dataclass
class ElasticConfig:
    """Pool configuration accumulated by the Figure 3 setters.

    Defaults are the paper's: burst interval 60 s, CPU add threshold 90%,
    CPU remove threshold 60%, RAM thresholds unset.
    """

    min_pool_size: int = 2
    max_pool_size: int = 8
    burst_interval: float = 60.0
    cpu_incr_threshold: float = 90.0
    cpu_decr_threshold: float = 60.0
    ram_incr_threshold: float | None = None
    ram_decr_threshold: float | None = None
    explicit_thresholds: bool = False  # any threshold setter called

    def validate(self) -> None:
        if self.min_pool_size < 2:
            raise PoolConfigurationError(
                f"minimum pool size must be >= 2 (paper section 4.2): "
                f"{self.min_pool_size}"
            )
        if self.max_pool_size < self.min_pool_size:
            raise PoolConfigurationError(
                f"max pool size {self.max_pool_size} < min "
                f"{self.min_pool_size}"
            )
        if self.burst_interval <= 0:
            raise PoolConfigurationError(
                f"burst interval must be positive: {self.burst_interval}"
            )
        if self.cpu_decr_threshold >= self.cpu_incr_threshold:
            raise PoolConfigurationError(
                "CPU decrease threshold must be below the increase "
                f"threshold: {self.cpu_decr_threshold} >= "
                f"{self.cpu_incr_threshold}"
            )
        if (
            self.ram_incr_threshold is not None
            and self.ram_decr_threshold is not None
            and self.ram_decr_threshold >= self.ram_incr_threshold
        ):
            raise PoolConfigurationError(
                "RAM decrease threshold must be below the increase threshold"
            )


class Decider:
    """Application-level scaling decisions across elastic pools.

    Subclass and override :meth:`get_desired_pool_size`; attach via
    ``ElasticObject(decider=...)`` or ``pool.set_decider``.  The runtime
    polls the decider every burst interval and adds/removes the difference
    between desired and current size (clamped to [min, max]).
    """

    def get_desired_pool_size(self, pool: "ElasticObjectPool") -> int:
        raise NotImplementedError


class ElasticObject(Elastic):
    """Base class every elastic class extends (paper Figure 3).

    One instance exists per pool member; the configuration set in
    ``__init__`` is read by the runtime when the pool is instantiated.
    Runtime-backed queries (pool size, utilization averages, method call
    stats) work once the member is attached to a pool; before attachment
    they raise :class:`RuntimeError` with a clear message.
    """

    def __init__(self, decider: Decider | None = None) -> None:
        self._ermi_config = ElasticConfig()
        self._ermi_decider = decider
        self._ermi_ctx: Any = None  # MemberContext, set by the pool

    # -- configuration (pre-attachment) -----------------------------------

    def set_min_pool_size(self, size: int) -> None:
        self._ermi_config.min_pool_size = int(size)

    def set_max_pool_size(self, size: int) -> None:
        self._ermi_config.max_pool_size = int(size)

    def set_burst_interval(self, interval_s: float) -> None:
        """Make scaling decisions every ``interval_s`` seconds.

        Note: the paper's signature takes milliseconds; this library uses
        seconds everywhere for consistency.
        """
        self._ermi_config.burst_interval = float(interval_s)

    def set_cpu_incr_threshold(self, threshold: float) -> None:
        self._check_thresholds_allowed()
        self._ermi_config.cpu_incr_threshold = float(threshold)
        self._ermi_config.explicit_thresholds = True

    def set_cpu_decr_threshold(self, threshold: float) -> None:
        self._check_thresholds_allowed()
        self._ermi_config.cpu_decr_threshold = float(threshold)
        self._ermi_config.explicit_thresholds = True

    def set_ram_incr_threshold(self, threshold: float) -> None:
        self._check_thresholds_allowed()
        self._ermi_config.ram_incr_threshold = float(threshold)
        self._ermi_config.explicit_thresholds = True

    def set_ram_decr_threshold(self, threshold: float) -> None:
        self._check_thresholds_allowed()
        self._ermi_config.ram_decr_threshold = float(threshold)
        self._ermi_config.explicit_thresholds = True

    def _check_thresholds_allowed(self) -> None:
        if self.overrides_change_pool_size():
            raise ScalingDisabledError(
                f"{type(self).__name__} overrides change_pool_size(); "
                "CPU/RAM threshold scaling is disabled (single decision "
                "mechanism, paper section 3.3)"
            )

    # -- runtime-backed queries ------------------------------------------------

    def get_avg_cpu_usage(self) -> float:
        """CPU utilization (percent) averaged over the burst interval,
        across the pool."""
        return self._ctx().pool.avg_cpu_usage()

    def get_avg_ram_usage(self) -> float:
        """RAM utilization (percent) averaged over the burst interval."""
        return self._ctx().pool.avg_ram_usage()

    def get_pool_size(self) -> int:
        return self._ctx().pool.size()

    def get_method_call_stats(self) -> dict[str, MethodCallStat]:
        """Per-method call statistics over the last burst interval."""
        return self._ctx().pool.method_call_stats()

    # -- stub bootstrap (invoked remotely by elastic stubs) ---------------------

    def ermi_member_identities(self) -> tuple[RemoteRef, ...]:
        """Identities (remote references) of every active pool member,
        sentinel first.  Client stubs call this on first contact with the
        sentinel, and again whenever the membership epoch moves, to learn
        where to load-balance (paper section 4.3); applications never
        need it.  A tuple of frozen refs, so the reply travels zero-copy
        like the (empty) request: a membership refresh pickles nothing."""
        return self._ctx().pool.member_identities()

    # -- fine-grained scaling hook ------------------------------------------------

    def change_pool_size(self) -> int:
        """Polled every burst interval when overridden; return a positive
        or negative member-count delta (votes are averaged across the
        pool).  The base implementation is a sentinel meaning "not
        overridden" and must not be called by applications."""
        raise NotImplementedError(
            "change_pool_size() was not overridden; the runtime only polls "
            "classes that override it"
        )

    @classmethod
    def overrides_change_pool_size(cls) -> bool:
        return cls.change_pool_size is not ElasticObject.change_pool_size

    # -- internals -----------------------------------------------------------------

    def _ctx(self) -> Any:
        if self._ermi_ctx is None:
            raise RuntimeError(
                f"{type(self).__name__} is not attached to an elastic pool; "
                "instantiate it through ElasticRuntime.new_pool(...)"
            )
        return self._ermi_ctx
