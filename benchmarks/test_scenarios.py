"""Scenario stories: the full matrix, each scenario's headline asserted.

Runs every scenario in :data:`repro.scenarios.catalog.SCENARIOS` once
through :func:`repro.scenarios.runner.run_scenario`, writing nothing,
and asserts each scenario's headline story:

- **diurnal** — the pool tracks the cycle with near-zero agility and
  tight tails;
- **flash-crowd** — the spike's provisioning lag shows up as a p99 far
  above p50, but the QoS bound holds and nothing is lost;
- **thundering-herd** — reconnects re-dispatch in-flight operations and
  the herd burst lands, with full completion;
- **hot-key** — the per-member LRU keeps the hit rate high and the hot
  shard grows while cold shards hold their minimum;
- **multi-tenant** — both tenants meet QoS side by side.

``ERMI_BENCH_SCALE`` shrinks the simulated event count, not the
dynamics.  The full-scale numbers are the committed
``SCENARIO_<name>.json`` summaries, which CI compares byte for byte
with ``python -m repro scenario all --summary-dir``.
"""

from __future__ import annotations

import pytest

from repro.experiments.benchreport import bench_scale
from repro.scenarios.catalog import SCENARIOS
from repro.scenarios.runner import run_scenario


@pytest.fixture(scope="module")
def suite():
    results = {
        name: run_scenario(name, scale=bench_scale()) for name in SCENARIOS
    }
    for result in results.values():
        print("\n" + result.describe())
    return results


class TestScenarioStories:
    def test_diurnal_tracks_the_cycle(self, suite):
        result = suite["diurnal"]
        assert result.qos_met()
        assert result.average_agility() < 1.5
        tenant = result.tenants["dcs"]
        assert tenant.stats.completed == tenant.stats.arrivals

    def test_flash_crowd_shows_provisioning_lag_but_holds_qos(self, suite):
        result = suite["flash-crowd"]
        assert result.qos_met()
        latency = result.summary()["latency"]
        # The spike's queueing tail dwarfs the steady-state median.
        assert latency["p99_ms"] > 10 * latency["p50_ms"]

    def test_thundering_herd_reconnects_everything(self, suite):
        result = suite["thundering-herd"]
        if bench_scale() >= 1.0:
            # At smoke scales the two victims may have nothing in
            # flight at the kill instant; at full scale they always do.
            assert result.total("redispatched") > 0
        expected_herd = int(
            round(900_000 * SCENARIOS["thundering-herd"].model_factor
                  * bench_scale())
        )
        assert result.total("herd_arrivals") == expected_herd
        assert result.total("completed") == result.total("arrivals")

    def test_hot_key_warms_caches_and_grows_hot_shard(self, suite):
        result = suite["hot-key"]
        tenant = result.tenants["hedwig-sharded"]
        assert tenant.stats.cache_hit_rate() > 0.5
        assert len(tenant.final_sizes) == 4
        # Skew concentrates load: mid-run the tenant's provisioned
        # capacity rose above the 4x2 shard minimum (the hot shard
        # grew; the drain shrinks it back before final_sizes).
        total_min = SCENARIOS["hot-key"].tenants[0].pool.total_min()
        peak = max(s.cap_prov for s in tenant.agility.samples)
        assert peak > total_min

    def test_multi_tenant_meets_qos_side_by_side(self, suite):
        result = suite["multi-tenant"]
        assert set(result.tenants) == {"marketcetera", "hedwig"}
        for tenant in result.tenants.values():
            assert tenant.qos_met()

    def test_percentiles_are_coherent(self, suite):
        for result in suite.values():
            latency = result.summary()["latency"]
            assert 0 < latency["p50_ms"] <= latency["p99_ms"]
            assert latency["count"] > 0
