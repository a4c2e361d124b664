"""Async-transport benchmark: the event-loop scalability claims.

Runs the ``async`` suite once through
:func:`repro.experiments.benchreport.run_suite` (which validates the
report against its spec), writes ``BENCH_rmi_async.json`` at the repo
root, and asserts the headline claims:

- the asyncio transport sustains >= 2048 concurrent in-flight calls
  (measured by the gated in-flight probe, where every handler parks
  until the full window is admitted);
- at high concurrency (c1024 and c4096) the asyncio transport beats the
  threaded transport's throughput on the same 1 ms echo workload;
- on the threaded transport, 64 pipelining callers coalesce into shared
  batches within the batcher's in-flight window, and batching beats
  one message per call;
- the emitted JSON is well-formed and satisfies the suite's spec.

Set ``ERMI_BENCH_SCALE`` (e.g. ``0.05``) to shrink iteration counts for
CI smoke runs; the assertions are scale-independent.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.benchreport import (
    ASYNC_CONCURRENCY,
    BATCH_INFLIGHT,
    SUITES,
    format_table,
    load_report,
    run_suite,
    spec_problems,
    validate_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SUITE = "async"

SUSTAINED_INFLIGHT_FLOOR = 2048


@pytest.fixture(scope="module")
def suite():
    doc = run_suite(SUITE, str(REPO_ROOT))["BENCH_rmi_async.json"]
    print("\n" + format_table(doc))
    return {record["name"]: record for record in doc["records"]}, doc["extra"]


class TestAsyncBenchmark:
    def test_report_emitted_and_wellformed(self, suite):
        path = REPO_ROOT / "BENCH_rmi_async.json"
        assert path.exists()
        doc = load_report(str(path))
        assert validate_report(doc) == []
        assert spec_problems(SUITES[SUITE], {path.name: doc}) == []

    def test_sustains_thousands_of_inflight_calls(self, suite):
        """The tentpole claim: one event loop holds thousands of calls
        in flight at once (the threaded transport tops out at its
        worker count)."""
        _, extra = suite
        probe = extra["inflight-probe"]
        assert probe["inflight_hwm"] >= SUSTAINED_INFLIGHT_FLOOR, (
            f"in-flight high-water mark {probe['inflight_hwm']} < "
            f"{SUSTAINED_INFLIGHT_FLOOR}"
        )

    def test_aio_beats_threaded_at_high_concurrency(self, suite):
        records, _ = suite
        for concurrency in (1024, 4096):
            aio = records[f"aio-c{concurrency}"]["calls_per_sec"]
            threaded = records[f"threaded-c{concurrency}"]["calls_per_sec"]
            assert aio > threaded, (
                f"c{concurrency}: aio {aio:.0f} calls/s <= threaded "
                f"{threaded:.0f} calls/s"
            )

    def test_window_metadata_recorded(self, suite):
        records, extra = suite
        for concurrency in ASYNC_CONCURRENCY:
            meta = extra[f"aio-c{concurrency}"]
            assert meta["inflight_hwm"] > 0
            assert meta["window"] >= meta["inflight_hwm"]

    def test_threaded_batching_coalesces_and_pays_off(self, suite):
        records, extra = suite
        stats = extra["batch-on-c64"]
        assert stats["coalesce_ratio"] > 4.0
        assert 1 <= stats["inflight_hwm"] <= BATCH_INFLIGHT
        batched = records["batch-on-c64"]["calls_per_sec"]
        unbatched = records["batch-off-c64"]["calls_per_sec"]
        # The committed report reads ~2x; smoke-proof margin here.
        assert batched >= 1.2 * unbatched, (
            f"batched {batched:.0f} calls/s vs unbatched {unbatched:.0f}"
        )

    def test_percentiles_are_coherent(self, suite):
        records, _ = suite
        for record in records.values():
            assert 0 < record["p50_us"] <= record["p99_us"]
            assert record["calls"] > 0
            assert record["elapsed_s"] > 0
