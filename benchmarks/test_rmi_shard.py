"""Sharded-routing benchmark: the key-affinity claims.

Runs the ``shard`` suite once through
:func:`repro.experiments.benchreport.run_suite` (which validates the
report against its spec), writes ``BENCH_rmi_shard.json`` at the repo
root, and asserts the headline claims:

- affinity routing beats flat round-robin on hot-key p99 latency at
  c256 — per-member caches stay warm when each member only sees its
  shard's slice of the keyspace;
- affinity routing's overall hit rate beats flat round-robin's;
- the Decider-driven elasticity probe shows exactly one (hot) shard
  growing while the others hold their minimum — per-shard independent
  scaling;
- the emitted JSON is well-formed and satisfies the suite's spec.

Set ``ERMI_BENCH_SCALE`` (e.g. ``0.05``) to shrink the measured window
count for CI smoke runs; warmup is fixed-size so the assertions compare
warm steady states at every scale.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.benchreport import (
    SHARD_COUNT,
    SUITES,
    format_table,
    load_report,
    run_suite,
    spec_problems,
    validate_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SUITE = "shard"

#: Required hot-key p99 advantage of affinity over flat routing.  The
#: measured ratio sits near 3x; 1.3x keeps noisy CI runners honest
#: without flaking.
HOT_P99_RATIO_FLOOR = 1.3


@pytest.fixture(scope="module")
def suite():
    doc = run_suite(SUITE, str(REPO_ROOT))["BENCH_rmi_shard.json"]
    print("\n" + format_table(doc))
    return {record["name"]: record for record in doc["records"]}, doc["extra"]


class TestShardBenchmark:
    def test_report_emitted_and_wellformed(self, suite):
        path = REPO_ROOT / "BENCH_rmi_shard.json"
        assert path.exists()
        doc = load_report(str(path))
        assert validate_report(doc) == []
        assert spec_problems(SUITES[SUITE], {path.name: doc}) == []

    def test_affinity_beats_flat_on_hot_key_p99(self, suite):
        """The tentpole claim: routing a key's calls to its shard keeps
        that key's state warm, so the hot keys' p99 stays at hit
        latency while flat round-robin churns them out to miss cost."""
        _, extra = suite
        flat = extra["shard-flat-c256"]["hot_key_p99_us"]
        affinity = extra["shard-affinity-c256"]["hot_key_p99_us"]
        assert affinity > 0
        assert flat >= HOT_P99_RATIO_FLOOR * affinity, (
            f"hot-key p99: affinity {affinity:.0f}us vs flat {flat:.0f}us "
            f"(< {HOT_P99_RATIO_FLOOR}x advantage)"
        )

    def test_affinity_improves_hit_rate(self, suite):
        _, extra = suite
        flat = extra["shard-flat-c256"]["hit_rate"]
        affinity = extra["shard-affinity-c256"]["hit_rate"]
        assert affinity > flat, (
            f"hit rate: affinity {affinity} <= flat {flat}"
        )

    def test_shards_scale_independently(self, suite):
        """Each shard runs its own Decider ticks: only the hot shard
        grows, the rest stay at their minimum."""
        _, extra = suite
        probe = extra["shard-elasticity"]
        hot = probe["hot_shard"]
        before = probe["sizes_before"]
        after = probe["sizes_after"]
        assert len(after) == SHARD_COUNT >= 4
        assert after[hot] == probe["hot_target"] > before[hot]
        for index in range(SHARD_COUNT):
            if index != hot:
                assert after[index] == before[index]

    def test_per_shard_epoch_keys_published(self, suite):
        _, extra = suite
        probe = extra["shard-elasticity"]
        assert probe["epoch_keys"] == [
            f"probe-shard/shard{i}$epoch" for i in range(SHARD_COUNT)
        ]
        assert probe["shard_map"]["count"] == SHARD_COUNT
        assert probe["shard_map"]["pools"] == [
            f"probe-shard/shard{i}" for i in range(SHARD_COUNT)
        ]

    def test_percentiles_are_coherent(self, suite):
        records, _ = suite
        for record in records.values():
            assert 0 < record["p50_us"] <= record["p99_us"]
            assert record["calls"] > 0
            assert record["elapsed_s"] > 0
