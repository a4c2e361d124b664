"""Store watch/cache benchmark: push beats poll on the coordination path.

Runs the ``store`` suite once through
:func:`repro.experiments.benchreport.run_suite` (which validates the
report against its spec), writes ``BENCH_rmi_store.json`` at the repo
root, and asserts the headline claims:

- the watched epoch path performs **zero** store reads per steady-state
  invocation (the poll baseline pays exactly one ``get`` per call);
- watched invoke latency is no worse than the poll baseline (p50, with
  slack for CI noise);
- membership convergence after an epoch bump is at least 2x faster for
  256 watch-mode client caches than for the lease-mode (throttled-poll)
  baseline under the c256 churn scenario;
- the emitted JSON is well-formed and satisfies the suite's spec.

Set ``ERMI_BENCH_SCALE`` (e.g. ``0.05``) to shrink iteration counts for
CI smoke runs; the read-per-call and convergence contrasts hold at any
scale because they are structural, not throughput-dependent.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.benchreport import (
    SUITES,
    format_table,
    load_report,
    run_suite,
    spec_problems,
    validate_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SUITE = "store"

#: Required convergence advantage of push over lease-poll.  Measured
#: ratios sit around 100-250x (sub-ms push vs ~lease-length wait); 2x is
#: the acceptance floor and keeps noisy CI runners honest.
CONVERGENCE_SPEEDUP_FLOOR = 2.0

#: Allowed p50 latency slack for the watch leg relative to poll: the
#: watch path must be "no worse", measured with CI-noise headroom.
WATCH_P50_SLACK = 1.20


@pytest.fixture(scope="module")
def suite():
    doc = run_suite(SUITE, str(REPO_ROOT))["BENCH_rmi_store.json"]
    print("\n" + format_table(doc))
    return {record["name"]: record for record in doc["records"]}, doc["extra"]


class TestStoreBenchmark:
    def test_report_emitted_and_wellformed(self, suite):
        path = REPO_ROOT / "BENCH_rmi_store.json"
        assert path.exists()
        doc = load_report(str(path))
        assert validate_report(doc) == []
        assert spec_problems(SUITES[SUITE], {path.name: doc}) == []

    def test_watched_epoch_path_does_zero_store_reads(self, suite):
        """The tentpole claim: the per-call epoch ``get`` is gone —
        membership changes are pushed into the stub's cache, so the
        steady-state invocation path never touches the store."""
        _, extra = suite
        steady = extra["steady-state"]
        assert steady["poll_epoch_reads_per_call"] == pytest.approx(1.0)
        assert steady["watch_epoch_reads_per_call"] == 0.0

    def test_watched_latency_no_worse_than_poll(self, suite):
        records, _ = suite
        poll = records["epoch-poll-c1"]
        watch = records["epoch-watch-c1"]
        assert watch["p50_us"] <= poll["p50_us"] * WATCH_P50_SLACK, (
            f"watched p50 {watch['p50_us']:.1f}us vs "
            f"poll {poll['p50_us']:.1f}us"
        )

    def test_push_convergence_beats_lease_poll(self, suite):
        _, extra = suite
        convergence = extra["convergence"]
        assert convergence["speedup_p50"] >= CONVERGENCE_SPEEDUP_FLOOR, (
            f"convergence speedup {convergence['speedup_p50']}x "
            f"(< {CONVERGENCE_SPEEDUP_FLOOR}x floor): "
            f"watch p50 {convergence['watch_convergence_p50_ms']}ms vs "
            f"poll p50 {convergence['poll_convergence_p50_ms']}ms"
        )

    def test_convergence_measured_at_full_client_count(self, suite):
        records, extra = suite
        assert extra["convergence"]["clients"] == 256
        # Every cache converged in every round: calls = clients * rounds.
        rounds = extra["convergence"]["rounds"]
        assert records["churn-watch-c256"]["calls"] == 256 * rounds
        assert records["churn-poll-c256"]["calls"] == 256 * rounds
