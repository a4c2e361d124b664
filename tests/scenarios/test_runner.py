"""End-to-end scenario runner tests: replay, scaling, elasticity, QoS.

Full-scale matrix runs are the committed ``SCENARIO_<name>.json``
files; these use small scales (and one tiny bespoke spec) to keep the
tier-1 suite fast.
"""

import pytest

from repro.obs.export import validate_summary
from repro.scenarios.catalog import (
    ConstantPattern,
    FaultSpec,
    PoolSpec,
    QoSSpec,
    ScenarioSpec,
    ServiceSpec,
    TenantSpec,
)
from repro.scenarios.runner import ScenarioError, run_scenario

SCALE = 0.1  # 10% of each scenario's simulated event count


def tiny_spec(**overrides):
    """A fast bespoke scenario for structural tests."""
    fields = dict(
        name="tiny",
        title="Tiny test scenario",
        users=1_000_000,
        ops_per_user_s=0.00004,
        model_factor=1.0,
        duration_s=40.0,
        drain_s=10.0,
        seed=77,
        nodes=6,
        slices_per_node=4,
        tenants=(
            TenantSpec(
                name="tiny",
                app="dcs",
                pattern=lambda: ConstantPattern(40.0, 40.0),
                service=ServiceSpec(base_s=0.02),
                pool=PoolSpec(min_size=2, max_size=6),
                # A 40 s run is mostly startup transient (members take
                # 1-4 s to provision, arrivals park meanwhile), so the
                # p99 bound must absorb it; the committed scenarios are
                # long enough that the default tight bounds apply.
                qos=QoSSpec(max_p99_x_service=1000.0),
            ),
        ),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestSimRun:
    def test_completes_and_grades(self):
        result = run_scenario(tiny_spec())
        assert result.mode == "sim"
        assert result.total("arrivals") > 1000
        assert result.total("completed") == result.total("arrivals")
        tenant = result.tenants["tiny"]
        assert tenant.final_sizes and sum(tenant.final_sizes) >= 2
        assert result.qos_met()

    def test_summary_is_valid_obs_v1(self):
        result = run_scenario(tiny_spec())
        summary = result.summary()
        assert validate_summary(summary) == []
        assert summary["scenario"]["name"] == "tiny"
        assert summary["latency"]["count"] > 0
        assert summary["qos"]["completion_ratio"] == 1.0

    def test_replay_byte_identical(self):
        a = run_scenario("diurnal", scale=SCALE)
        b = run_scenario("diurnal", scale=SCALE)
        assert a.summary_json() == b.summary_json()

    def test_seed_changes_the_run(self):
        a = run_scenario(tiny_spec())
        b = run_scenario(tiny_spec(), seed=78)
        assert (
            a.total("arrivals") != b.total("arrivals")
            or a.merged_latencies() != b.merged_latencies()
        )

    def test_scale_shrinks_events_not_dynamics(self):
        full = run_scenario(tiny_spec())
        half = run_scenario(tiny_spec(), scale=0.5)
        ratio = half.total("arrivals") / full.total("arrivals")
        assert 0.35 < ratio < 0.65
        # Utilization is scale-invariant, so neither run queues: the
        # pool trajectory (and QoS) match.
        assert half.qos_met() == full.qos_met()

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ScenarioError):
            run_scenario(tiny_spec(), scale=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ScenarioError):
            run_scenario(tiny_spec(), mode="warp")


class TestElasticity:
    def test_overloaded_pool_grows(self):
        # 2 members serve 2/0.02 = 100 ops/s at saturation; offering
        # 160 ops/s keeps the busy fraction pinned at 100% until the
        # policy grows the pool past min.
        spec = tiny_spec(
            duration_s=60.0,
            tenants=(
                TenantSpec(
                    name="tiny",
                    app="dcs",
                    pattern=lambda: ConstantPattern(160.0, 60.0),
                    service=ServiceSpec(base_s=0.02),
                    pool=PoolSpec(min_size=2, max_size=8),
                    qos=QoSSpec(max_p99_x_service=10_000.0),
                ),
            ),
        )
        result = run_scenario(spec)
        tenant = result.tenants["tiny"]
        assert sum(tenant.final_sizes) > 2

    def test_fault_redispatches_and_herds(self):
        spec = tiny_spec(
            duration_s=60.0,
            drain_s=20.0,
            tenants=(
                TenantSpec(
                    name="tiny",
                    app="dcs",
                    pattern=lambda: ConstantPattern(60.0, 60.0),
                    service=ServiceSpec(base_s=0.03),
                    pool=PoolSpec(min_size=3, max_size=8),
                    faults=(
                        FaultSpec(
                            at_s=20.0, kill_members=1, herd_burst=200
                        ),
                    ),
                    qos=QoSSpec(max_p99_x_service=10_000.0),
                ),
            ),
        )
        result = run_scenario(spec)
        assert result.total("herd_arrivals") == 200
        summary = result.summary()
        assert summary["scenario"]["herd_arrivals"] == 200
        # The injector logged the crash into the trace summary.
        assert summary["counts"].get("member-crash", 0) == 1
        assert summary["components"].get("faults", 0) >= 1


class TestLiveMode:
    def test_live_replays_wall_clock(self):
        result = run_scenario(
            "diurnal", scale=0.2, mode="live", live_duration_s=1.5
        )
        assert result.mode == "live"
        assert result.total("arrivals") > 0
        assert result.total("completed") == result.total("arrivals")
        assert result.tenants["dcs"].stats.latencies

    def test_live_rejects_faulted_scenarios(self):
        with pytest.raises(ScenarioError):
            run_scenario("thundering-herd", mode="live")

    def test_live_rejects_multi_tenant(self):
        with pytest.raises(ScenarioError):
            run_scenario("multi-tenant", mode="live")

    def test_live_rejects_sharded(self):
        with pytest.raises(ScenarioError):
            run_scenario("hot-key", mode="live")
