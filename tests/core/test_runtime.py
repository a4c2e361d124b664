"""Tests for the runtime control loop: burst ticks, clamping, policy
application, registry maintenance, and shutdown."""

import pytest

from repro.cluster.provisioner import InstantProvisioner
from repro.core.api import Decider
from repro.core.runtime import ElasticRuntime
from repro.errors import PoolConfigurationError
from tests.core.conftest import CpuDial, EchoService, settle


def run_bursts(kernel, n, burst=60.0):
    kernel.run_until(kernel.clock.now() + n * burst + 1.0)


class TestPoolCreation:
    def test_duplicate_pool_name_rejected(self, runtime, kernel):
        runtime.new_pool(EchoService)
        with pytest.raises(PoolConfigurationError):
            runtime.new_pool(EchoService)

    def test_custom_pool_name(self, runtime, kernel):
        pool = runtime.new_pool(EchoService, name="my-cache")
        assert pool.name == "my-cache"
        assert runtime.pool("my-cache") is pool

    def test_non_elastic_class_rejected(self, runtime):
        class NotElastic:
            pass

        with pytest.raises(PoolConfigurationError):
            runtime.new_pool(NotElastic)

    def test_min_max_overrides(self, runtime, kernel):
        pool = runtime.new_pool(EchoService, min_size=3, max_size=4)
        settle(kernel)
        assert pool.size() == 3
        assert pool.config.max_pool_size == 4

    def test_unknown_pool_lookup_raises(self, runtime):
        with pytest.raises(KeyError):
            runtime.pool("ghost")

    def test_constructor_args_reach_members(self, runtime, kernel):
        class Configured(EchoService):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def get_tag(self):
                return self.tag

        runtime.new_pool(Configured, "hello-tag")
        settle(kernel)
        stub = runtime.stub("Configured")
        assert stub.get_tag() == "hello-tag"


class TestControlLoop:
    def test_high_cpu_grows_pool(self, runtime, kernel):
        dial = CpuDial(cpu=95.0)
        pool = runtime.new_pool(EchoService, utilization_factory=dial.source)
        settle(kernel)
        run_bursts(kernel, 3)
        # Implicit policy: +1 per burst above 90% -> 2 + 3 = 5
        assert pool.size() == 5

    def test_growth_clamped_at_max(self, runtime, kernel):
        dial = CpuDial(cpu=99.0)
        pool = runtime.new_pool(
            EchoService, max_size=4, utilization_factory=dial.source
        )
        settle(kernel)
        run_bursts(kernel, 10)
        assert pool.size() == 4

    def test_low_cpu_shrinks_to_min(self, runtime, kernel):
        dial = CpuDial(cpu=95.0)
        pool = runtime.new_pool(EchoService, utilization_factory=dial.source)
        settle(kernel)
        run_bursts(kernel, 3)
        assert pool.size() == 5
        dial.cpu = 10.0
        run_bursts(kernel, 10)
        assert pool.size() == 2

    def test_mid_range_cpu_holds_size(self, runtime, kernel):
        dial = CpuDial(cpu=75.0)
        pool = runtime.new_pool(EchoService, utilization_factory=dial.source)
        settle(kernel)
        run_bursts(kernel, 5)
        assert pool.size() == 2

    def test_custom_burst_interval_respected(self, runtime, kernel):
        class FastBurst(EchoService):
            def __init__(self):
                super().__init__()
                self.set_burst_interval(10.0)

        dial = CpuDial(cpu=95.0)
        pool = runtime.new_pool(FastBurst, utilization_factory=dial.source)
        settle(kernel)
        kernel.run_until(kernel.clock.now() + 35.0)
        assert pool.size() == 5  # three 10 s bursts elapsed

    def test_tick_counter_advances(self, runtime, kernel):
        runtime.new_pool(EchoService)
        settle(kernel)
        run_bursts(kernel, 4)
        assert runtime.record("EchoService").tick_count == 4

    def test_on_tick_hooks_observe_pool(self, runtime, kernel):
        sizes = []
        runtime.new_pool(EchoService)
        settle(kernel)
        runtime.record("EchoService").on_tick.append(
            lambda p: sizes.append(p.size())
        )
        run_bursts(kernel, 3)
        assert sizes == [2, 2, 2]

    def test_broken_policy_does_not_stop_loop(self, runtime, kernel):
        pool = runtime.new_pool(EchoService)
        settle(kernel)
        record = runtime.record("EchoService")

        class Broken:
            name = "broken"

            def decide(self, pool):
                raise RuntimeError("policy crash")

        record.policy = Broken()
        run_bursts(kernel, 3)
        assert record.tick_count == 3
        assert pool.size() == 2


class TestDeciderIntegration:
    def test_decider_drives_pool_to_desired_size(self, runtime, kernel):
        class Want5(Decider):
            def get_desired_pool_size(self, pool):
                return 5

        pool = runtime.new_pool(EchoService, decider=Want5())
        settle(kernel)
        run_bursts(kernel, 1)
        assert pool.size() == 5

    def test_decider_shrinks_back(self, runtime, kernel):
        class Schedule(Decider):
            def __init__(self):
                self.desired = 6

            def get_desired_pool_size(self, pool):
                return self.desired

        decider = Schedule()
        pool = runtime.new_pool(EchoService, decider=decider)
        settle(kernel)
        run_bursts(kernel, 1)
        assert pool.size() == 6
        decider.desired = 2
        run_bursts(kernel, 2)
        assert pool.size() == 2


class TestPolicyErrors:
    """A policy that fails abstains — and says so."""

    @staticmethod
    def run(decider=None, policy=None):
        from repro.obs import Observability
        from repro.sim.kernel import Kernel

        kernel = Kernel()
        obs = Observability(clock=kernel.clock)
        runtime = ElasticRuntime.simulated(
            kernel, nodes=8, slices_per_node=4,
            provisioner=InstantProvisioner(), observability=obs,
        )
        pool = runtime.new_pool(EchoService, decider=decider)
        record = runtime.record("EchoService")
        if policy is not None:
            record.policy = policy
        settle(kernel)
        sizes = []
        record.on_tick.append(lambda p: sizes.append(p.size()))
        run_bursts(kernel, 4)
        trace = [e.as_dict() for e in obs.tracer.events()]
        errors = [e["fields"] for e in trace if e["kind"] == "policy-error"]
        counter = obs.registry.counter("runtime.policy_errors").value
        return record, sizes, errors, counter, trace

    class SecondVoteRaises(Decider):
        def __init__(self):
            self.votes = 0

        def get_desired_pool_size(self, pool):
            self.votes += 1
            if self.votes == 2:
                raise KeyError("no such metric")
            return 3

    def test_decider_that_raises_once_is_counted_once(self):
        decider = self.SecondVoteRaises()
        record, sizes, errors, counter, _ = self.run(decider=decider)
        # Monitoring went on: four ticks, four votes.  The first vote
        # grew the pool to three (the hook sees it one tick later); the
        # failed second vote changed no size.
        assert record.tick_count == 4 and decider.votes == 4
        assert sizes == [2, 3, 3, 3]
        assert counter == 1
        assert errors == [
            {"pool": "EchoService", "policy": "decider", "error": "KeyError"}
        ]

    def test_policy_that_raises_every_tick_keeps_the_pool_ticking(self):
        class Broken:
            name = "broken"

            def decide(self, pool):
                raise ZeroDivisionError

        record, sizes, errors, counter, _ = self.run(policy=Broken())
        assert record.tick_count == 4
        assert sizes == [2, 2, 2, 2]
        assert counter == 4
        assert {(e["policy"], e["error"]) for e in errors} == {
            ("broken", "ZeroDivisionError")
        }

    def test_same_run_same_trace(self):
        first = self.run(decider=self.SecondVoteRaises())[4]
        second = self.run(decider=self.SecondVoteRaises())[4]
        assert first == second
        assert [e["component"] for e in first if e["kind"] == "policy-error"] == [
            "runtime"
        ]


class TestMesosOutage:
    def test_scaling_pauses_during_outage(self, runtime, kernel):
        """Paper section 4.4: Mesos failures affect addition/removal of
        objects until Mesos recovers."""
        dial = CpuDial(cpu=95.0)
        pool = runtime.new_pool(EchoService, utilization_factory=dial.source)
        settle(kernel)
        runtime.master.fail()
        run_bursts(kernel, 3)
        assert pool.size() == 2
        assert runtime.record("EchoService").paused_ticks == 3

    def test_scaling_resumes_after_recovery(self, runtime, kernel):
        dial = CpuDial(cpu=95.0)
        pool = runtime.new_pool(EchoService, utilization_factory=dial.source)
        settle(kernel)
        runtime.master.fail()
        run_bursts(kernel, 2)
        runtime.master.recover()
        run_bursts(kernel, 2)
        assert pool.size() == 4


class TestRegistryMaintenance:
    def test_pool_name_bound_to_sentinel(self, runtime, kernel):
        pool = runtime.new_pool(EchoService)
        settle(kernel)
        assert runtime.registry.lookup("EchoService") == pool.sentinel().ref()

    def test_rebinding_after_sentinel_death(self, runtime, kernel):
        pool = runtime.new_pool(EchoService)
        settle(kernel)
        old_ref = runtime.registry.lookup("EchoService")
        runtime.transport.kill(pool.sentinel().endpoint_id)
        run_bursts(kernel, 1)  # tick detects the dead member
        new_ref = runtime.registry.lookup("EchoService")
        assert new_ref != old_ref
        assert new_ref == pool.sentinel().ref()


class TestShutdown:
    def test_shutdown_stops_ticks(self, runtime, kernel):
        runtime.new_pool(EchoService)
        settle(kernel)
        record = runtime.record("EchoService")
        runtime.shutdown()
        run_bursts(kernel, 5)
        assert record.tick_count == 0

    def test_shutdown_releases_all_slices(self, runtime, kernel):
        runtime.new_pool(EchoService)
        settle(kernel)
        runtime.shutdown()
        assert runtime.master.allocated_slices() == 0

    def test_double_shutdown_is_safe(self, runtime):
        runtime.shutdown()
        runtime.shutdown()
