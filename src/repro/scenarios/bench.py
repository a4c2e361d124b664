"""The ``scenario`` bench suite: one ``BENCH_scenario_*.json`` per
scenario, regression-gated in CI.

Unlike the wall-clock suites, scenario reports are **deterministic**:
every metric is virtual-time (identical on any machine for a given
seed), so reports carry no environment stamps, replay byte-identically,
and the gate (``SUITES["scenario"]`` in
:mod:`repro.experiments.benchreport`) compares raw values, p50/p99
included.  A drift outside tolerance means the PR changed the *modeled
system's* behavior at scale (tail latency, throughput, elasticity), not
that the runner got a slower machine.
"""

from __future__ import annotations

import os
from typing import Any

from repro.experiments.benchreport import (
    bench_scale,
    build_report,
    check_suite,
    load_baselines,
    write_report,
)
from repro.scenarios.catalog import SCENARIOS
from repro.scenarios.runner import ScenarioResult, run_scenario

SUITE = "scenario"


def scenario_report_name(name: str) -> str:
    return f"BENCH_scenario_{name.replace('-', '_')}.json"


def scenario_report_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, scenario_report_name(name))


def run_scenario_suite(
    scale: float | None = None,
    out_dir: str | None = None,
    names: list[str] | None = None,
    seed: int | None = None,
) -> list[tuple[str, ScenarioResult, dict[str, Any]]]:
    """Run the matrix (or ``names``); write one report per scenario when
    ``out_dir`` is given.  ``scale`` defaults to ``ERMI_BENCH_SCALE``.
    Returns (name, result, report doc) triples."""
    if scale is None:
        scale = bench_scale()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    out: list[tuple[str, ScenarioResult, dict[str, Any]]] = []
    for name in names or list(SCENARIOS):
        result = run_scenario(name, seed=seed, scale=scale)
        records, extra = result.bench_records()
        doc = build_report(SUITE, records, extra=extra, deterministic=True)
        if out_dir is not None:
            write_report(scenario_report_path(out_dir, name), doc)
        out.append((name, result, doc))
    return out


def check_scenario_reports(
    results: list[tuple[str, ScenarioResult, dict[str, Any]]],
    baseline_dir: str,
) -> tuple[bool, list[str]]:
    """Gate each scenario's run against its committed baseline; a
    missing baseline file is a failure."""
    docs = {scenario_report_name(name): doc for name, _result, doc in results}
    failures, lines = check_suite(
        SUITE, docs, load_baselines(SUITE, baseline_dir)
    )
    return not failures, lines
