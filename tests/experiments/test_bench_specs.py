"""Every suite spec matches its committed ``BENCH_*.json`` baselines.

``repro bench`` refuses to write a report that lacks a record or
``extra`` key its spec requires; this checks the committed files against
the same specs, so a spec and its baseline cannot drift apart unnoticed
until a CI gate run.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.benchreport import SUITES, load_report, spec_problems

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_committed_baselines_satisfy_the_spec(name):
    spec = SUITES[name]
    docs = {
        file: load_report(str(REPO_ROOT / file)) for file in spec.reports
    }
    assert spec_problems(spec, docs) == []


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_gated_family_anchor_is_a_required_record(name):
    spec = SUITES[name]
    records = {r for names in spec.reports.values() for r in names}
    for prefixes, anchor in spec.families:
        assert anchor in records
        assert any(record.startswith(prefixes) for record in records)


def test_missing_record_and_extra_key_are_reported():
    spec = SUITES["shard"]
    doc = load_report(str(REPO_ROOT / "BENCH_rmi_shard.json"))
    doc["records"] = doc["records"][:1]
    del doc["extra"]["shard-flat-c256"]
    problems = spec_problems(spec, {"BENCH_rmi_shard.json": doc})
    assert any("shard-affinity-c256" in p for p in problems)
    assert any("extra['shard-flat-c256'] missing" in p for p in problems)
