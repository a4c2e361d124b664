"""The cpu suite's family-normalized regression gate.

Thread-vs-process throughput ratios depend on the measuring machine's
core count (the committed baseline comes from a 1-core container; CI
runners have 4), so the cpu gate normalizes each record by *its
family's* anchor rather than one global anchor.  These tests pin that
contract: topology shifts between families never flag, drops within a
family do.
"""

from __future__ import annotations

import pytest

from repro.experiments.benchreport import SUITES, compare_reports

CPU = SUITES["cpu"]


def _report(throughputs: dict[str, float]) -> dict:
    return {
        "records": [
            {"name": name, "calls_per_sec": value}
            for name, value in throughputs.items()
        ]
    }


BASELINE = _report(
    {
        "cpu-thread-1ms": 900.0,
        "cpu-thread-5ms": 190.0,
        "cpu-thread-20ms": 44.0,
        "cpu-proc-1ms": 600.0,
        "cpu-proc-5ms": 115.0,
        "cpu-proc-20ms": 28.0,
        "cpu-aio-proc-5ms": 110.0,
        "cpu-pipe-1mib": 400.0,
        "cpu-shm-1mib": 410.0,
        "cpu-pipe-4mib": 60.0,
        "cpu-shm-4mib": 120.0,
    }
)


class TestCpuFamilyGate:
    def test_identical_reports_pass(self):
        result = compare_reports(CPU, BASELINE, BASELINE)
        assert result.ok
        assert result.regressions == []
        assert result.missing == []

    def test_cross_family_topology_shift_does_not_flag(self):
        """A 4-core runner speeds every process-family leg up ~4x while
        the GIL-serialised thread legs stay put — the exact cross-family
        drift the per-family anchors exist to ignore."""
        shifted = {
            r["name"]: r["calls_per_sec"] for r in BASELINE["records"]
        }
        for name in list(shifted):
            if name.startswith(("cpu-proc-", "cpu-aio-proc-")):
                shifted[name] *= 4.0
        result = compare_reports(CPU, BASELINE, _report(shifted))
        assert result.ok, result.lines

    def test_within_family_drop_flags(self):
        degraded = {
            r["name"]: r["calls_per_sec"] for r in BASELINE["records"]
        }
        degraded["cpu-shm-4mib"] *= 0.5  # shm win halved vs its anchor
        result = compare_reports(CPU, BASELINE, _report(degraded))
        assert not result.ok
        assert result.regressions == ["cpu-shm-4mib"]

    def test_uniform_machine_slowdown_does_not_flag(self):
        slower = {
            r["name"]: r["calls_per_sec"] * 0.4
            for r in BASELINE["records"]
        }
        result = compare_reports(CPU, BASELINE, _report(slower))
        assert result.ok, result.lines

    def test_excluded_leg_is_reported_but_not_gated(self):
        assert "cpu-proc-1ms" in CPU.ungated
        degraded = {
            r["name"]: r["calls_per_sec"] for r in BASELINE["records"]
        }
        degraded["cpu-proc-1ms"] *= 0.1
        result = compare_reports(CPU, BASELINE, _report(degraded))
        assert result.ok
        assert any(
            "cpu-proc-1ms" in line and "skipped" in line
            for line in result.lines
        )

    def test_missing_record_is_flagged(self):
        partial = {
            r["name"]: r["calls_per_sec"]
            for r in BASELINE["records"]
            if r["name"] != "cpu-shm-4mib"
        }
        result = compare_reports(CPU, BASELINE, _report(partial))
        assert not result.ok
        assert result.missing == ["cpu-shm-4mib"]

    def test_missing_anchor_raises(self):
        no_anchor = {
            r["name"]: r["calls_per_sec"]
            for r in BASELINE["records"]
            if r["name"] != "cpu-proc-5ms"
        }
        with pytest.raises(ValueError, match="cpu-proc-5ms"):
            compare_reports(CPU, BASELINE, _report(no_anchor))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_reports(CPU, BASELINE, BASELINE, tolerance=1.5)


class TestAsyncFamilyGate:
    """One family per transport: each leg is read against its own
    transport's own anchor."""

    SPEC = SUITES["async"]
    BASE = {
        "threaded-c64": 3600.0, "threaded-c256": 3700.0,
        "threaded-c1024": 3700.0, "threaded-c4096": 3700.0,
        "aio-c64": 9000.0, "aio-c256": 14000.0,
        "aio-c1024": 16000.0, "aio-c4096": 15000.0,
    }

    def test_threaded_vs_aio_topology_shift_does_not_flag(self):
        """A host where the event loop runs 2x faster and the threaded
        workers do not moves every aio leg against the threaded ones."""
        shifted = {
            name: value * (2.0 if name.startswith("aio-") else 1.0)
            for name, value in self.BASE.items()
        }
        result = compare_reports(
            self.SPEC, _report(self.BASE), _report(shifted)
        )
        assert result.ok, result.lines

    def test_aio_only_drop_flags(self):
        degraded = dict(self.BASE)
        degraded["aio-c4096"] *= 0.5
        result = compare_reports(
            self.SPEC, _report(self.BASE), _report(degraded)
        )
        assert result.regressions == ["aio-c4096"]
