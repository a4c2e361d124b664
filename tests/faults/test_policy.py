"""RetryPolicy/RetryState: bounds, backoff shape, jitter, and how the
exhausted budget surfaces through the elastic stub."""

from __future__ import annotations

import random

import pytest

from repro.core.balancer import ElasticStub
from repro.errors import ConnectError
from repro.faults.policy import RetryPolicy, RetryState
from repro.rmi.remote import Remote, Skeleton
from repro.rmi.transport import DirectTransport


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_rounds": 0},
            {"budget": 0.0},
            {"budget": -1.0},
            {"base_backoff": -0.1},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_describe_names_every_bound(self):
        text = RetryPolicy(max_attempts=5, max_rounds=3, budget=7.0).describe()
        assert "5 attempts" in text
        assert "3 rounds" in text
        assert "7.0s budget" in text


class TestBackoffShape:
    def test_no_delay_before_first_round(self):
        assert RetryPolicy().backoff_for(1) == 0.0

    def test_capped_exponential_growth(self):
        policy = RetryPolicy(
            base_backoff=0.1, multiplier=2.0, max_backoff=0.5, max_rounds=8
        )
        delays = [policy.backoff_for(r) for r in range(2, 7)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]  # grows, then caps

    def test_jitter_is_deterministic_under_a_seeded_rng(self):
        policy = RetryPolicy(max_rounds=4, base_backoff=0.1, jitter=0.5)

        def total_backoff(seed):
            state = policy.start(rng=random.Random(seed))
            while state.next_round():
                pass
            return state.total_backoff

        assert total_backoff(7) == total_backoff(7)
        assert total_backoff(7) != total_backoff(8)

    def test_no_rng_means_nominal_delays(self):
        policy = RetryPolicy(max_rounds=3, base_backoff=0.1, multiplier=2.0)
        state = policy.start()
        assert state.next_round() and state.next_round()
        assert state.total_backoff == pytest.approx(0.1 + 0.2)

    def test_sleep_callable_receives_the_backoff(self):
        slept = []
        policy = RetryPolicy(max_rounds=2, base_backoff=0.25, jitter=0.0)
        state = policy.start(sleep=slept.append)
        assert state.next_round()
        assert slept == [0.25]


class TestBounds:
    def test_attempt_budget(self):
        state = RetryPolicy(max_attempts=3).start()
        for _ in range(3):
            assert state.allow_attempt()
            state.note_attempt()
        assert not state.allow_attempt()
        assert "attempt budget exhausted" in state.exhausted_reason()

    def test_round_budget(self):
        state = RetryPolicy(max_rounds=2, max_attempts=100).start()
        assert state.next_round()
        assert not state.next_round()

    def test_time_budget_against_a_clock(self):
        clock = FakeClock()
        state = RetryPolicy(budget=1.0).start(clock=clock)
        assert state.allow_attempt()
        clock.advance(2.0)
        assert state.over_budget()
        assert not state.allow_attempt()
        assert not state.next_round()  # an exhausted budget also ends rounds
        assert "time budget exhausted" in state.exhausted_reason()

    def test_no_clock_means_no_time_budget(self):
        state = RetryPolicy(budget=0.001).start()  # clock omitted
        assert not state.over_budget()
        assert state.allow_attempt()

    def test_exhausted_reason_names_the_policy(self):
        policy = RetryPolicy(max_attempts=1)
        state = policy.start()
        state.note_attempt()
        assert policy.describe() in state.exhausted_reason()

    def test_state_is_per_invocation(self):
        policy = RetryPolicy(max_attempts=1)
        first = policy.start()
        first.note_attempt()
        assert not first.allow_attempt()
        assert policy.start().allow_attempt()  # a fresh invocation


class _Worker(Remote):
    def echo(self, value):
        return value


class _FakeSentinel(Remote):
    def __init__(self, members):
        self.members = members

    def ermi_member_identities(self):
        return list(self.members)


@pytest.fixture
def dead_pool_rig():
    """Three workers and a sentinel; every worker endpoint is dead."""
    transport = DirectTransport()
    members = []
    for i in range(3):
        ep = transport.add_endpoint(f"worker-{i}")
        members.append(Skeleton(_Worker(), transport, ep.endpoint_id).ref())
    sentinel = _FakeSentinel(members)
    sep = transport.add_endpoint("sentinel")
    sentinel_ref = Skeleton(sentinel, transport, sep.endpoint_id).ref()
    for ref in members:
        transport.kill(ref.endpoint_id)
    return transport, sentinel_ref


class TestStubBudgetSurfacing:
    """Satellite: the stub's ConnectError names the exhausted budget."""

    def test_total_failure_names_the_exhausted_budget(self, dead_pool_rig):
        transport, sentinel_ref = dead_pool_rig
        policy = RetryPolicy(max_attempts=4, max_rounds=2, budget=None)
        stub = ElasticStub(transport, lambda: sentinel_ref, retry_policy=policy)
        with pytest.raises(ConnectError) as err:
            stub.echo("anyone there?")
        message = str(err.value)
        assert "all members of the elastic pool failed" in message
        assert policy.describe() in message

    def test_attempts_are_bounded(self, dead_pool_rig):
        transport, sentinel_ref = dead_pool_rig
        attempts = []
        original = transport.invoke

        def counting_invoke(endpoint_id, request):
            if request.method == "echo":
                attempts.append(endpoint_id)
            return original(endpoint_id, request)

        transport.invoke = counting_invoke
        stub = ElasticStub(
            transport,
            lambda: sentinel_ref,
            retry_policy=RetryPolicy(max_attempts=4, max_rounds=10),
        )
        with pytest.raises(ConnectError):
            stub.echo("x")
        assert len(attempts) <= 4

    def test_time_budget_ends_retry_with_an_advancing_clock(self, dead_pool_rig):
        transport, sentinel_ref = dead_pool_rig
        clock = FakeClock()
        stub = ElasticStub(
            transport,
            lambda: sentinel_ref,
            retry_policy=RetryPolicy(max_attempts=10_000, max_rounds=10_000,
                                     budget=1.0, jitter=0.0),
            clock=clock,
            sleep=clock.advance,  # backoff is what advances time here
        )
        with pytest.raises(ConnectError) as err:
            stub.echo("x")
        assert "time budget exhausted" in str(err.value)

    def test_budget_counts_from_call_start_not_first_failure(
        self, dead_pool_rig
    ):
        """A call's retry state is built only when a send fails, but the
        budget is the call's: a first send that fails after the whole
        budget has passed leaves no time for a second."""
        transport, sentinel_ref = dead_pool_rig
        clock = FakeClock()
        sends = []
        original = transport.invoke

        def slow_failing_invoke(endpoint_id, request):
            if request.method == "echo":
                sends.append(endpoint_id)
                clock.advance(2.0)
            return original(endpoint_id, request)

        transport.invoke = slow_failing_invoke
        stub = ElasticStub(
            transport,
            lambda: sentinel_ref,
            retry_policy=RetryPolicy(max_attempts=10, max_rounds=10,
                                     budget=1.0, jitter=0.0),
            clock=clock,
        )
        with pytest.raises(ConnectError) as err:
            stub.echo("x")
        assert len(sends) == 1
        assert "time budget exhausted" in str(err.value)


class TestMaskedRetrySurfacing:
    """Satellite: a call whose *final* attempt succeeds must not make its
    earlier failed attempts vanish — the metrics registry records them."""

    @pytest.fixture
    def half_dead_rig(self):
        """Two workers; the one the rotation tries first is dead."""
        transport = DirectTransport()
        members = []
        for i in range(2):
            ep = transport.add_endpoint(f"worker-{i}")
            members.append(Skeleton(_Worker(), transport, ep.endpoint_id).ref())
        sentinel = _FakeSentinel(members)
        sep = transport.add_endpoint("sentinel")
        sentinel_ref = Skeleton(sentinel, transport, sep.endpoint_id).ref()
        transport.kill(members[0].endpoint_id)
        return transport, sentinel_ref

    def test_successful_call_still_records_its_attempts(self, half_dead_rig):
        from repro.obs import Observability
        from repro.sim.clock import SimClock

        transport, sentinel_ref = half_dead_rig
        obs = Observability(clock=SimClock())
        stub = ElasticStub(
            transport,
            lambda: sentinel_ref,
            retry_policy=RetryPolicy(max_attempts=4, max_rounds=2),
            obs=obs,
        )
        assert stub.echo("still here") == "still here"

        counters = obs.registry.snapshot()["counters"]
        assert counters["rmi.client.calls"] == 1
        assert counters["rmi.client.attempts"] == 2
        assert counters["rmi.client.retried_calls"] == 1
        assert counters["rmi.client.retries"] == 1
        assert counters.get("rmi.client.errors", 0) == 0

        retries = obs.tracer.events(kind="retry")
        assert len(retries) == 1
        assert retries[0].get("error") == "ConnectError"
        calls = obs.tracer.events(kind="call")
        assert len(calls) == 1
        assert calls[0].get("ok") is True
        assert calls[0].get("attempts") == 2

    def test_clean_call_records_no_retry(self):
        from repro.obs import Observability
        from repro.sim.clock import SimClock

        transport = DirectTransport()
        ep = transport.add_endpoint("worker-0")
        worker = Skeleton(_Worker(), transport, ep.endpoint_id).ref()
        sep = transport.add_endpoint("sentinel")
        sentinel_ref = Skeleton(
            _FakeSentinel([worker]), transport, sep.endpoint_id
        ).ref()
        obs = Observability(clock=SimClock())
        stub = ElasticStub(
            transport,
            lambda: sentinel_ref,
            retry_policy=RetryPolicy(max_attempts=4, max_rounds=2),
            obs=obs,
        )
        assert stub.echo("ok") == "ok"
        counters = obs.registry.snapshot()["counters"]
        assert counters["rmi.client.attempts"] == counters["rmi.client.calls"]
        assert counters.get("rmi.client.retried_calls", 0) == 0
        assert obs.tracer.events(kind="retry") == []


class TestRetryStateType:
    def test_start_returns_retry_state(self):
        assert isinstance(RetryPolicy().start(), RetryState)
