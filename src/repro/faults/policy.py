"""The unified retry policy: timeout, capped exponential backoff, jitter.

Before this module existed, every retry loop in the code base invented
its own bounds: the elastic stub walked the member list for a fixed
number of passes with no overall deadline, so a pool where every member
was *slow* (not dead) retried without limit.  :class:`RetryPolicy` is the
single source of truth for how long a failure may be masked before it
propagates (paper section 4.3: the stub retries "on other objects
including the sentinel", and only total pool failure reaches the
application — this policy decides when "total" has been established).

A policy is immutable configuration; :meth:`RetryPolicy.start` produces
one mutable :class:`RetryState` per logical invocation.  The state is
bounded three ways, and exhausting *any* bound ends the invocation:

- **attempts** — total sends (the primary bound under virtual time,
  where the clock does not advance inside a synchronous retry loop);
- **rounds** — membership-refresh cycles (walk the cached members, then
  re-fetch identities from the sentinel and walk again);
- **budget** — elapsed seconds against the supplied clock (the primary
  bound live, where slow members really burn wall time).

Backoff between rounds is capped exponential with optional jitter drawn
from a caller-supplied RNG, so simulations using seeded
:class:`~repro.sim.rng.RngStreams` stay bit-for-bit reproducible.
Sleeping is delegated to a caller-supplied callable: live runtimes pass
``time.sleep``; simulated runtimes pass nothing and the backoff is a
pure bookkeeping step (virtual time cannot be advanced from inside a
synchronous invocation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    ApplicationError,
    ConnectError,
    MemberDrainedError,
    RemoteError,
)
from repro.sim.clock import Clock


def is_retryable(error: BaseException) -> bool:
    """May the stub mask this failure with a retry?

    The taxonomy every retry loop (sync, async, batched) must agree on:
    transport-level failures (:class:`ConnectError`, timeouts, other
    :class:`RemoteError`) and drain refusals are retryable — the call
    never ran, or ran somewhere that told us to go elsewhere.  An
    :class:`ApplicationError` means the remote method *did* run and
    raised; retrying would double-execute, so it is never retryable.
    This classification is per **logical call**: a batched entry whose
    wire message was dropped is retryable even though sibling entries in
    the same message failed with it.
    """
    if isinstance(error, ApplicationError):
        return False
    return isinstance(error, (RemoteError, MemberDrainedError))


def should_discard_member(error: BaseException) -> bool:
    """Should the failing member be dropped from cached membership?

    Dead (:class:`ConnectError`) and draining
    (:class:`MemberDrainedError`) members are discarded before the
    retry; a merely *slow* member (plain :class:`RemoteError` timeout)
    stays cached — slowness is transient, death is not.
    """
    return isinstance(error, (ConnectError, MemberDrainedError))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds and backoff shape for one class of retried operations.

    The defaults reproduce the elastic stub's historical behaviour (two
    passes over the membership) while adding the bounds it lacked: a
    total-attempt cap and a time budget, so an all-slow pool surfaces a
    :class:`~repro.errors.ConnectError` instead of retrying forever.
    """

    max_attempts: int = 16          # total sends per logical invocation
    max_rounds: int = 2             # membership-refresh cycles
    budget: float | None = 30.0     # overall seconds; None = attempts/rounds only
    base_backoff: float = 0.05      # seconds before the second round
    max_backoff: float = 2.0        # backoff growth cap
    multiplier: float = 2.0         # exponential growth factor
    jitter: float = 0.5             # fraction of the delay randomized (+/- half)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1: {self.max_rounds}")
        if self.budget is not None and self.budget <= 0:
            raise ValueError(f"budget must be positive: {self.budget}")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    def describe(self) -> str:
        budget = "no time budget" if self.budget is None else f"{self.budget}s budget"
        return (
            f"{self.max_attempts} attempts / {self.max_rounds} rounds / {budget}"
        )

    def backoff_for(self, round_number: int) -> float:
        """Nominal (un-jittered) delay before ``round_number`` (2-based:
        there is no delay before the first round)."""
        if round_number <= 1:
            return 0.0
        delay = self.base_backoff * self.multiplier ** (round_number - 2)
        return min(delay, self.max_backoff)

    def start(
        self,
        clock: Clock | None = None,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] | None = None,
        started: float | None = None,
    ) -> "RetryState":
        """Begin one logical invocation under this policy.

        ``clock`` enforces the time budget (omitted → attempts/rounds
        only); ``rng`` supplies jitter (omitted → deterministic nominal
        backoff); ``sleep`` performs the backoff delay (omitted → the
        delay is recorded but not waited, the simulation-safe default).
        ``started`` is the clock reading the budget counts from (omitted
        → now): a caller that builds its state only once a send has
        failed passes the time the invocation began.
        """
        return RetryState(
            self, clock=clock, rng=rng, sleep=sleep, started=started
        )


class RetryState:
    """Mutable per-invocation progress against a :class:`RetryPolicy`."""

    def __init__(
        self,
        policy: RetryPolicy,
        clock: Clock | None = None,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] | None = None,
        started: float | None = None,
    ) -> None:
        self.policy = policy
        self.attempts = 0
        self.rounds = 1
        self.total_backoff = 0.0
        self._clock = clock
        self._rng = rng
        self._sleep = sleep
        if clock is None:
            self._started = None
        else:
            self._started = clock.now() if started is None else started

    # -- budget queries --------------------------------------------------------

    def elapsed(self) -> float:
        if self._clock is None or self._started is None:
            return 0.0
        return self._clock.now() - self._started

    def over_budget(self) -> bool:
        budget = self.policy.budget
        return budget is not None and self._clock is not None and (
            self.elapsed() >= budget
        )

    def allow_attempt(self) -> bool:
        """May one more send happen?  False once any bound is exhausted."""
        return self.attempts < self.policy.max_attempts and not self.over_budget()

    def note_attempt(self) -> None:
        self.attempts += 1

    # -- round transitions -----------------------------------------------------

    def next_round(self) -> bool:
        """Move to the next membership-refresh round, backing off first.

        Returns False (without sleeping) when any bound — rounds,
        attempts, or time budget — is already exhausted.
        """
        if self.rounds >= self.policy.max_rounds:
            return False
        if not self.allow_attempt():
            return False
        self.rounds += 1
        delay = self.policy.backoff_for(self.rounds)
        if delay > 0 and self._rng is not None and self.policy.jitter > 0:
            # Symmetric jitter: delay * (1 +/- jitter/2).
            spread = self.policy.jitter * (self._rng.random() - 0.5)
            delay = max(0.0, delay * (1.0 + spread))
        self.total_backoff += delay
        if delay > 0 and self._sleep is not None:
            self._sleep(delay)
        return True

    # -- exhaustion reporting --------------------------------------------------

    def exhausted_reason(self) -> str:
        """Which bound ended the invocation — named so the surfaced
        ConnectError tells the operator exactly what budget ran out."""
        if self.over_budget():
            return (
                f"time budget exhausted after {self.elapsed():.3f}s "
                f"(policy: {self.policy.describe()})"
            )
        if self.attempts >= self.policy.max_attempts:
            return (
                f"attempt budget exhausted after {self.attempts} attempts "
                f"(policy: {self.policy.describe()})"
            )
        return (
            f"retries exhausted after {self.rounds} rounds / "
            f"{self.attempts} attempts (policy: {self.policy.describe()})"
        )
