"""Load balancing: elastic client stubs and the sentinel's rebalancer.

ElasticRMI uses a *hybrid* model (paper section 4.3):

- **Client side** — the preprocessor-generated stub contacts the sentinel
  once to fetch the member identities, then spreads subsequent calls over
  the members randomly or round-robin.  If a member disappears after its
  identity was cached, the send fails, the stub intercepts the exception
  and retries on the other members (including the sentinel); only when
  *every* member fails does the exception propagate to the application.
  :class:`ElasticStub` implements exactly that protocol.

- **Server side** — the sentinel periodically collects pending-invocation
  counts, and when a skeleton is overloaded relative to the others it
  instructs it to redirect a portion of its incoming invocations to a set
  of underloaded skeletons.  The number of redirected invocations is
  chosen with the first-fit greedy bin-packing approximation the paper
  cites: overloaded members' excesses (sorted decreasing) are packed
  first-fit into the spare capacities of underloaded members.
  :class:`FirstFitRebalancer` computes the plan;
  :class:`FractionalRedirect` is the per-skeleton directive.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    ApplicationError,
    ConnectError,
    MemberDrainedError,
    RemoteError,
    StoreError,
)
from repro.faults.policy import RetryPolicy, RetryState, should_discard_member
from repro.rmi.batching import RequestBatcher, batch_max_from_env
from repro.rmi.fastpath import marshal_call
from repro.rmi.future import RmiFuture
from repro.rmi.remote import (
    CallMachine,
    RemoteRef,
    Stub,
    attempt,
    run_call,
    start_call,
)
from repro.rmi.transport import Request, Transport
from repro.routing import ShardRouter
from repro.sim.clock import Clock

if TYPE_CHECKING:
    from repro.core.pool import ElasticObjectPool


class BalancingMode(Enum):
    ROUND_ROBIN = "round-robin"
    RANDOM = "random"


class ElasticStub:
    """Client-side proxy for a whole elastic pool.

    Appears to the application as a single remote object: attribute access
    returns invokers, failures of individual members are masked by retry,
    and only total pool failure propagates.

    Membership caching is *epoch-based* when an ``epoch_source`` is given
    (the runtime wires one that reads the pool's epoch key the sentinel
    bumps in the KV store on every membership change): the common path
    reads the cached member list with no lock at all — the list reference
    is swapped atomically on refresh and the round-robin cursor is an
    ``itertools.count`` (atomic in CPython) — and identities are re-read
    from the sentinel only when the epoch moves.  Without an epoch source
    the stub falls back to the legacy count-based refresh (re-fetch every
    ``refresh_every`` calls).
    """

    def __init__(
        self,
        transport: Transport,
        sentinel_resolver: Callable[[], RemoteRef],
        mode: BalancingMode = BalancingMode.ROUND_ROBIN,
        caller: str = "client",
        rng: Any = None,
        refresh_every: int = 64,
        epoch_source: Callable[[], int] | None = None,
        retry_policy: RetryPolicy | None = None,
        clock: Clock | None = None,
        sleep: Callable[[float], None] | None = None,
        obs: Any = None,
        batcher: RequestBatcher | None = None,
    ) -> None:
        self._transport = transport
        self._resolve_sentinel = sentinel_resolver
        self._mode = mode
        self._caller = caller
        self._rng = rng
        self._refresh_every = refresh_every
        self._epoch_source = epoch_source
        # Retry behaviour is budget-bounded: the policy caps attempts,
        # refresh rounds, and (when a clock is wired) total elapsed time,
        # so an all-slow pool surfaces a ConnectError instead of retrying
        # without limit.  The clock/sleep pair comes from the runtime:
        # wall time + time.sleep live, virtual clock + no-op simulated.
        self._retry_policy = retry_policy or RetryPolicy()
        self._clock = clock
        self._sleep = sleep
        # Observability (repro.obs.Observability): call/retry events and
        # the client-side counters.  Attempt counts are recorded even
        # when the *final* attempt succeeds — retries that recovery
        # masked used to vanish without record.
        self._obs = obs
        # Request batching: an explicit batcher wins; otherwise one is
        # built when ERMI_BATCH_MAX enables coalescing.  Disabled (the
        # default) keeps the invoke path at a single is-None branch.
        if batcher is None and (max_batch := batch_max_from_env()) > 1:
            batcher = RequestBatcher(
                transport, max_batch=max_batch, caller=caller, obs=obs
            )
        self._batcher = (
            batcher if batcher is not None and batcher.enabled else None
        )
        self._epoch = -1  # epoch the cached members belong to
        self._members: list[RemoteRef] = []
        self._rr = itertools.count()
        self._calls_since_refresh = 0
        self._discarded: set[RemoteRef] = set()
        self._lock = threading.Lock()

    # -- public proxy surface -------------------------------------------------

    def __getattr__(self, method: str) -> Callable[..., Any]:
        if method.startswith("_"):
            raise AttributeError(method)

        def invoker(*args: Any, **kwargs: Any) -> Any:
            return self._invoke(method, args, kwargs)

        invoker.__name__ = method
        return invoker

    def members_snapshot(self) -> list[RemoteRef]:
        with self._lock:
            return list(self._members)

    # -- membership -------------------------------------------------------------

    def _refresh_members(self, epoch: int | None = None) -> None:
        """Fetch identities from the sentinel (first contact, an epoch
        move, or failure recovery)."""
        sentinel = self._resolve_sentinel()
        stub = Stub(self._transport, sentinel, caller=self._caller)
        refs = stub.ermi_member_identities()
        with self._lock:
            held = self._members
            if held or self._discarded:  # not first contact
                # Capacity that arrives serves at once: a ref this stub
                # never held is a member that just activated, so the
                # cursor restarts *at it* — the refreshing call itself
                # goes there, and after grow(k) the next k calls walk
                # the k new members (the sentinel lists by uid, so they
                # sit together at the tail).  Round-robin would have
                # reached each within one turn anyway; this only spends
                # the turn on the member that has served nothing yet.
                known = self._discarded.union(held)
                fresh = next(
                    (i for i, ref in enumerate(refs) if ref not in known),
                    None,
                )
                if fresh is not None:
                    self._rr = itertools.count(fresh)
                elif any(ref in self._discarded for ref in refs):
                    # A previously-discarded member re-appearing means
                    # the rotation positions shifted under us: restart
                    # the cursor so round-robin stays balanced instead
                    # of skewing toward the members that happened to
                    # follow the revived slot.
                    self._rr = itertools.count()
            self._discarded.clear()
            self._members = list(refs)
            self._calls_since_refresh = 0
            if epoch is not None:
                self._epoch = epoch

    def _read_epoch(self) -> int:
        try:
            return int(self._epoch_source())
        except (RemoteError, StoreError):
            # Store/transport hiccup: serve the cached membership;
            # failures of the cached members themselves still trigger
            # refresh via retry.  Anything else (a TypeError from a
            # miswired epoch source, say) is a programming error and must
            # propagate, not silently degrade to a stale cache.
            return self._epoch

    def _targets(self) -> tuple[list[RemoteRef], int]:
        """This call's member list and the index of its primary.

        The list is a snapshot — a discard or refresh replaces
        ``self._members``, never mutates it — so the failover order is
        the members after the primary, wrapping round:
        ``members[(start + k) % len(members)]``.  Nothing is copied to
        pick a member.
        """
        if self._epoch_source is not None:
            # Epoch path: lock-free unless the epoch moved.
            members = self._members
            epoch = self._read_epoch()
            if not members or epoch != self._epoch:
                try:
                    self._refresh_members(epoch=epoch)
                except (ConnectError, MemberDrainedError, RemoteError):
                    # The sentinel may be dead mid-re-election (the
                    # epoch moved because its members were reaped).
                    # Serve the stale cache — dead entries get
                    # discarded by per-member retry — and leave the
                    # epoch unchanged so the next call re-fetches.
                    if not self._members:
                        raise
                    if epoch != self._epoch and self._discarded:
                        # The epoch moved, so the discard set describes
                        # a membership that no longer exists.  Without
                        # this, a long sentinel outage accumulated every
                        # ref ever discarded (the set grew without
                        # bound) and a member that recovered under the
                        # same identity stayed out of the stale rotation
                        # until a refresh finally succeeded.  Return the
                        # discarded refs to the candidate list — per-
                        # member retry re-discards the ones still dead —
                        # and restart the cursor (positions shifted).
                        with self._lock:
                            revived = sorted(
                                (
                                    ref for ref in self._discarded
                                    if ref not in self._members
                                ),
                                key=lambda r: (r.endpoint_id, r.object_id),
                            )
                            self._members = self._members + revived
                            self._discarded.clear()
                            self._rr = itertools.count()
                members = self._members
        else:
            # Legacy path: count-based periodic refresh.
            with self._lock:
                needs_refresh = (
                    not self._members
                    or self._calls_since_refresh >= self._refresh_every
                )
            if needs_refresh:
                self._refresh_members()
            with self._lock:
                self._calls_since_refresh += 1
                members = self._members
        if not members:
            raise ConnectError("elastic pool has no members")
        if self._mode is BalancingMode.RANDOM and self._rng is not None:
            return members, self._rng.randrange(len(members))
        return members, next(self._rr) % len(members)

    # -- invocation --------------------------------------------------------------

    def invoke_async(self, method: str, *args: Any, **kwargs: Any) -> RmiFuture:
        """Start ``method(*args, **kwargs)``; return an :class:`RmiFuture`.

        The synchronous proxy surface is ``invoke_async(...).result()``
        in semantics: both step the same :meth:`_call` machine.  Who
        steps it is :func:`~repro.rmi.remote.start_call`'s choice: with
        a batcher the first send is *deferred* — queued for pipelining
        with other async calls bound for the same member, and sent when
        the batch fills, the stub flushes, or the future is awaited — and
        on an asynchronous transport it completes on the event loop;
        either way the caller's thread never parks at submission.
        """
        return start_call(
            self._call(method, marshal_call(args, kwargs)),
            self._transport,
            self._batcher,
        )

    def flush_pending(self) -> None:
        """Send queued batch entries now (drain / membership change)."""
        if self._batcher is not None:
            self._batcher.flush()

    @property
    def batcher(self) -> RequestBatcher | None:
        return self._batcher

    def _invoke(self, method: str, args: tuple, kwargs: dict) -> Any:
        batcher = self._batcher
        return run_call(
            self._call(method, marshal_call(args, kwargs)),
            self._transport.invoke if batcher is None else batcher.dispatch,
        )

    def _call(self, method: str, payload: Any) -> CallMachine:
        """The paper's client protocol for one logical invocation, as a
        call machine: spread, retry the other members, refresh from the
        sentinel, and fail only when the policy's budget is spent.

        Every send — however it travels: blocking, batched, on the event
        loop — is an attempt charged to this one ``state``, so a logical
        call retries exactly per policy on every driver.

        Only a failure pays for recovery: the clock is read once, here,
        and the time budget counts from that reading, but the
        :class:`~repro.faults.policy.RetryState` is built only when a
        send fails (or no member can be picked).  The first send of a
        call is always within budget, so a call whose first send
        succeeds builds no state at all.
        """
        started = None if self._clock is None else self._clock.now()
        state: RetryState | None = None
        last_error: Exception | None = None
        while True:
            try:
                members, start = self._targets()
            except (ConnectError, MemberDrainedError, RemoteError) as exc:
                # First contact (or re-fetch) failed: the sentinel may be
                # mid-re-election or a message was lost.  Retrying this
                # costs a round like any other failed pass.
                last_error = exc
                state = state or self._start_retry(started)
                if not state.next_round():
                    break
                continue
            size = len(members)
            for turn in range(size):
                if state is not None:
                    if not state.allow_attempt():
                        break
                    state.note_attempt()
                ref = members[(start + turn) % size]
                try:
                    result = yield from attempt(
                        ref, method, payload, self._caller, ConnectError
                    )
                except ApplicationError:
                    # The remote method itself raised; never retried
                    # (policy.is_retryable): retrying would re-execute.
                    # Delivery succeeded, so the attempt count still
                    # lands in the registry.
                    self._note_call(method, state, started, "app-error")
                    raise
                except (ConnectError, MemberDrainedError, RemoteError) as exc:
                    # Retryable delivery failure.  Dead or draining
                    # members are dropped from the cache; a merely slow
                    # one (timeout) costs budget but stays cached —
                    # slowness is transient, death is not.
                    last_error = exc
                    if state is None:
                        # The call's first failure: its state starts
                        # here, charged the send that just failed.
                        state = self._start_retry(started)
                        state.note_attempt()
                    if should_discard_member(exc):
                        self._discard(ref)
                    self._note_failed_attempt(method, state, exc)
                    continue
                self._note_call(method, state, started, "ok")
                return result
            # All cached members failed: back off, refresh identities,
            # and try once more within budget (paper: "the stub then
            # retries the invocation on other objects including the
            # sentinel").
            if not state.next_round():
                break
            try:
                self._refresh_members()
            except (ConnectError, MemberDrainedError, RemoteError) as exc:
                # The sentinel itself may be transiently unreachable (a
                # dropped message, mid-re-election).  The round already
                # cost budget; keep going from the cached membership
                # rather than aborting the invocation.
                last_error = exc
        self._note_call(method, state, started, "failed")
        raise ConnectError(
            f"all members of the elastic pool failed for {method!r}: "
            f"{state.exhausted_reason()}",
            cause=last_error,
        )

    def _start_retry(self, started: float | None) -> RetryState:
        """The retry state of a call that began at ``started``."""
        return self._retry_policy.start(
            clock=self._clock, rng=self._rng, sleep=self._sleep,
            started=started,
        )

    # -- observability -----------------------------------------------------

    def _note_failed_attempt(
        self, method: str, state: RetryState, error: Exception
    ) -> None:
        """One send failed and will (budget permitting) be retried."""
        obs = self._obs
        if obs is None:
            return
        obs.tracer.emit(
            "client", "retry",
            method=method, attempt=state.attempts,
            error=type(error).__name__, caller=self._caller,
        )

    def _note_call(
        self,
        method: str,
        state: RetryState | None,
        started: float | None,
        outcome: str,
    ) -> None:
        """Record one *logical* invocation — including the attempts a
        masked recovery spent, which previously left no record when the
        final attempt succeeded.  No ``state`` means no send failed: one
        attempt, one round."""
        obs = self._obs
        if obs is None:
            return
        attempts, rounds = (
            (1, 1) if state is None else (state.attempts, state.rounds)
        )
        registry = obs.registry
        registry.counter("rmi.client.calls").inc()
        registry.counter("rmi.client.attempts").inc(attempts)
        if attempts > 1:
            registry.counter("rmi.client.retried_calls").inc()
            registry.counter("rmi.client.retries").inc(attempts - 1)
        if outcome == "failed":
            registry.counter("rmi.client.errors").inc()
        latency = (
            0.0 if started is None or self._clock is None
            else self._clock.now() - started
        )
        obs.tracer.emit(
            "client", "call",
            method=method, attempts=attempts, rounds=rounds,
            ok=(outcome == "ok"), outcome=outcome,
            latency=round(latency, 9), caller=self._caller,
        )

    def _discard(self, ref: RemoteRef) -> None:
        with self._lock:
            # Replace (never mutate) the list: readers hold no lock.
            self._members = [m for m in self._members if m != ref]
            self._discarded.add(ref)


class ShardedElasticStub:
    """Client-side proxy for a sharded elastic pool.

    Holds one :class:`ElasticStub` per shard and a
    :class:`~repro.routing.ShardRouter` built over the same shard names
    the server side used, so client and server agree on every key's
    owner without coordination.  Routing contract:

    - ``affinity_key=K`` — ``K`` is hashed onto the shard ring; the call
      round-robins *within* that shard only.  All calls carrying the
      same key land on the same shard for the lifetime of the pool
      (the shard set is fixed; per-shard membership churn never moves
      a key).
    - no affinity key — the call spreads round-robin across shards,
      then round-robins within the chosen shard: flat spread, same as
      an unsharded pool.

    Each shard's stub owns its own membership cache, retry state, and —
    when batching is enabled — its own :class:`RequestBatcher`, so
    batches coalesce per shard endpoint and never across shards.
    """

    def __init__(
        self,
        name: str,
        stubs: list[ElasticStub],
        router: ShardRouter | None = None,
    ) -> None:
        if not stubs:
            raise ValueError(f"sharded stub {name!r} needs >= 1 shard stub")
        self._name = name
        self._stubs = list(stubs)
        self._router = router or ShardRouter.for_pool(name, len(stubs))
        if self._router.shards != len(stubs):
            raise ValueError(
                f"router covers {self._router.shards} shards but "
                f"{len(stubs)} stubs were given"
            )

    # -- routing ---------------------------------------------------------

    @property
    def shards(self) -> int:
        return len(self._stubs)

    def shard_for(self, key: str) -> int:
        return self._router.shard_for(str(key))

    def stub_for(self, key: str | None) -> ElasticStub:
        """The shard stub serving ``key`` (keyless → spread)."""
        if key is None:
            return self._stubs[self._router.spread()]
        return self._stubs[self.shard_for(key)]

    def shard_stub(self, index: int) -> ElasticStub:
        return self._stubs[index]

    # -- public proxy surface --------------------------------------------

    def __getattr__(self, method: str) -> Callable[..., Any]:
        if method.startswith("_"):
            raise AttributeError(method)

        def invoker(*args: Any, **kwargs: Any) -> Any:
            # affinity_key is routing metadata, not a remote argument:
            # strip it before the payload is marshalled.
            key = kwargs.pop("affinity_key", None)
            return self.stub_for(key)._invoke(method, args, kwargs)

        invoker.__name__ = method
        return invoker

    def invoke(
        self,
        method: str,
        *args: Any,
        affinity_key: str | None = None,
        **kwargs: Any,
    ) -> Any:
        return self.stub_for(affinity_key)._invoke(method, args, kwargs)

    def invoke_async(
        self,
        method: str,
        *args: Any,
        affinity_key: str | None = None,
        **kwargs: Any,
    ) -> RmiFuture:
        return self.stub_for(affinity_key).invoke_async(
            method, *args, **kwargs
        )

    def flush_pending(self) -> None:
        """Flush every shard's queued batch entries."""
        for stub in self._stubs:
            stub.flush_pending()

    def members_snapshot(self) -> list[RemoteRef]:
        """All cached members across shards (diagnostics)."""
        refs: list[RemoteRef] = []
        for stub in self._stubs:
            refs.extend(stub.members_snapshot())
        return refs


class FractionalRedirect:
    """Skeleton directive: bounce ``fraction`` of incoming calls to
    ``targets`` (cycled).  Deterministic counter-based selection so tests
    and simulations are reproducible."""

    def __init__(self, fraction: float, targets: list[RemoteRef]) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0,1]: {fraction}")
        if fraction > 0 and not targets:
            raise ValueError("positive fraction requires at least one target")
        self.fraction = fraction
        self.targets = list(targets)
        self._count = 0
        self._redirected = 0

    def __call__(self, request: Request) -> RemoteRef | None:
        if self.fraction <= 0.0 or not self.targets:
            return None
        self._count += 1
        # Redirect whenever the realized ratio lags the desired fraction.
        if self._redirected < self.fraction * self._count:
            self._redirected += 1
            target = self.targets[self._redirected % len(self.targets)]
            return target
        return None


@dataclass
class RebalanceDecision:
    """The sentinel's plan: per-member redirect directives."""

    plan: dict[int, FractionalRedirect | None]
    overloaded: list[int]
    underloaded: list[int]


class FirstFitRebalancer:
    """First-fit greedy bin packing of excess load into spare capacity.

    ``tolerance`` is the relative deviation from the mean pending count a
    member may have before it counts as overloaded/underloaded.
    """

    def __init__(self, tolerance: float = 0.25) -> None:
        if tolerance < 0:
            raise ValueError(f"negative tolerance: {tolerance}")
        self.tolerance = tolerance

    def plan(
        self,
        pending: dict[int, int],
        refs: dict[int, RemoteRef],
    ) -> RebalanceDecision:
        """Compute redirect directives from per-member pending counts."""
        if len(pending) < 2:
            return RebalanceDecision({uid: None for uid in pending}, [], [])
        mean = sum(pending.values()) / len(pending)
        high = mean * (1 + self.tolerance)
        low = mean * (1 - self.tolerance)
        overloaded = [
            (uid, count - mean) for uid, count in pending.items() if count > high
        ]
        underloaded = [
            (uid, mean - count) for uid, count in pending.items() if count < low
        ]
        plan: dict[int, FractionalRedirect | None] = {
            uid: None for uid in pending
        }
        if not overloaded or not underloaded:
            return RebalanceDecision(plan, [], [])
        # First-fit decreasing: largest excess first, packed into the
        # spare-capacity bins in order.
        overloaded.sort(key=lambda item: -item[1])
        bins = [[uid, spare] for uid, spare in underloaded]
        for uid, excess in overloaded:
            assigned: list[tuple[int, float]] = []
            remaining = excess
            for entry in bins:
                if remaining <= 0:
                    break
                if entry[1] <= 0:
                    continue
                take = min(entry[1], remaining)
                assigned.append((entry[0], take))
                entry[1] -= take
                remaining -= take
            if assigned:
                moved = sum(amount for _, amount in assigned)
                fraction = min(1.0, moved / max(pending[uid], 1))
                targets = [refs[target] for target, _ in assigned]
                plan[uid] = FractionalRedirect(fraction, targets)
        return RebalanceDecision(
            plan,
            [uid for uid, _ in overloaded],
            [uid for uid, _ in underloaded],
        )
