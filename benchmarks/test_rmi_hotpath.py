"""RMI hot-path benchmark: the perf baseline every later PR measures
against.

Runs :func:`repro.experiments.benchreport.run_hotpath_suite` once,
writes ``BENCH_rmi_hotpath.json`` at the repo root, and asserts the
headline claims:

- the zero-copy marshal fast path is >= 3x the pickled baseline on the
  immutable-payload microbenchmark (both measured in this same run);
- calls/sec and p50/p99 are reported for the direct transport, the
  threaded transport, and elastic-stub fan-out at pool sizes 2/8/32;
- the emitted JSON is well-formed against the ``repro.bench/v1`` schema.

Set ``ERMI_BENCH_SCALE`` (e.g. ``0.05``) to shrink iteration counts for
CI smoke runs; the assertions are scale-independent.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.benchreport import (
    format_table,
    load_report,
    run_hotpath_suite,
    validate_report,
    write_report,
)

REPORT_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_rmi_hotpath.json"
)


@pytest.fixture(scope="module")
def records():
    suite = run_hotpath_suite()
    write_report(str(REPORT_PATH), "rmi_hotpath", suite)
    print("\n" + format_table(suite))
    return {record.name: record for record in suite}


class TestHotpathBenchmark:
    def test_report_emitted_and_wellformed(self, records):
        assert REPORT_PATH.exists()
        doc = load_report(str(REPORT_PATH))
        assert validate_report(doc) == []
        names = {record["name"] for record in doc["records"]}
        assert {
            "marshal-pickle",
            "marshal-zerocopy",
            "direct-unicast",
            "threaded-unicast",
            "elastic-pool2",
            "elastic-pool8",
            "elastic-pool32",
        } <= names

    def test_zero_copy_beats_pickled_baseline_3x(self, records):
        """The tentpole claim: immutable payloads skip pickling for a
        >= 3x marshal-layer throughput win."""
        fast = records["marshal-zerocopy"].calls_per_sec
        baseline = records["marshal-pickle"].calls_per_sec
        assert fast >= 3.0 * baseline, (
            f"zero-copy {fast:.0f} calls/s vs pickled {baseline:.0f} "
            f"calls/s: ratio {fast / baseline:.2f}x < 3x"
        )

    def test_fanout_measured_at_all_pool_sizes(self, records):
        for size in (2, 8, 32):
            record = records[f"elastic-pool{size}"]
            assert record.config["pool_size"] == size
            assert record.calls_per_sec > 0

    def test_percentiles_are_coherent(self, records):
        for record in records.values():
            assert 0 < record.p50_us <= record.p99_us
            assert record.calls > 0
            assert record.elapsed_s > 0
