"""Smoke test of the end-to-end benchmark (not in tier-1's ``testpaths``).

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

``--quick`` shrinks a run to one half-second window and ten resize
cycles; the numbers mean nothing, but every workload must still print
every metric ``BENCHMARK.json`` declares, finite, under exactly those
names, with no failed call.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def quick(workload: str, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--workload", workload, "--seed", "5", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_printed(workload, trace, declared):
    result = quick(workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name
        if declared == "end_to_end":
            assert metric["value"] > 0, name


def test_without_the_program_it_fails_without_a_result(tmp_path):
    """In a tree that holds only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench / name)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "echo_sync",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
