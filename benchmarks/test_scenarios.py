"""Scenario suite benchmark: runs the full matrix, refreshes baselines.

Runs every scenario in :data:`repro.scenarios.catalog.SCENARIOS` once
and rewrites its ``BENCH_scenario_*.json`` at the repo root, then
asserts each scenario's headline story:

- **diurnal** — the pool tracks the cycle with near-zero agility and
  tight tails;
- **flash-crowd** — the spike's provisioning lag shows up as a p99 far
  above p50, but the QoS bound holds and nothing is lost;
- **thundering-herd** — reconnects re-dispatch in-flight operations and
  the herd burst lands, with full completion;
- **hot-key** — the per-member LRU keeps the hit rate high and the hot
  shard grows while cold shards hold their minimum;
- **multi-tenant** — both tenants meet QoS side by side.

Unlike the wall-clock suites, these reports are deterministic: metrics
are virtual-time, so ``ERMI_BENCH_SCALE`` changes the *report contents*
(fewer simulated arrivals), not just the measurement window.  Baselines
are committed at scale 1.0 — only refresh them at the default scale.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.benchreport import (
    bench_scale,
    format_table,
    load_report,
    validate_report,
)
from repro.scenarios.bench import run_scenario_suite, scenario_report_path
from repro.scenarios.catalog import SCENARIOS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def suite():
    results = run_scenario_suite(out_dir=str(REPO_ROOT))
    for _name, result, doc in results:
        print("\n" + result.describe())
        print(format_table(doc))
    return {name: (result, doc) for name, result, doc in results}


class TestScenarioReports:
    def test_every_scenario_emits_a_wellformed_report(self, suite):
        for name in SCENARIOS:
            path = scenario_report_path(str(REPO_ROOT), name)
            doc = load_report(path)
            assert validate_report(doc) == [], path
            assert doc["deterministic"] is True
            assert "created_unix" not in doc  # replayable byte-for-byte
            assert doc["extra"]["seed"] == SCENARIOS[name].seed

    def test_matrix_covers_the_issue(self, suite):
        assert len(suite) >= 4

    def test_reports_match_live_docs(self, suite):
        for name, (_result, doc) in suite.items():
            on_disk = load_report(scenario_report_path(str(REPO_ROOT), name))
            assert on_disk == doc


class TestScenarioStories:
    def test_diurnal_tracks_the_cycle(self, suite):
        result, _ = suite["diurnal"]
        assert result.qos_met()
        assert result.average_agility() < 1.5
        tenant = result.tenants["dcs"]
        assert tenant.stats.completed == tenant.stats.arrivals

    def test_flash_crowd_shows_provisioning_lag_but_holds_qos(self, suite):
        result, doc = suite["flash-crowd"]
        assert result.qos_met()
        record = doc["records"][0]
        # The spike's queueing tail dwarfs the steady-state median.
        assert record["p99_us"] > 10 * record["p50_us"]

    def test_thundering_herd_reconnects_everything(self, suite):
        result, _ = suite["thundering-herd"]
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
        result, _ = suite["hot-key"]
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
        result, _ = suite["multi-tenant"]
        assert set(result.tenants) == {"marketcetera", "hedwig"}
        for tenant in result.tenants.values():
            assert tenant.qos_met()

    def test_percentiles_are_coherent(self, suite):
        for _name, (_result, doc) in suite.items():
            for record in doc["records"]:
                assert 0 < record["p50_us"] <= record["p99_us"]
                assert record["calls"] > 0
