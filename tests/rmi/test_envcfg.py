"""The environment surface: validated ``ERMI_*`` parsing, and no more.

A malformed environment value must fail at construction with a
ValueError naming the variable — not as an anonymous ``invalid literal``
surfacing from deep inside a stub constructor, and never silently
mid-call.  Tuning knobs are constructor arguments only: the environment
holds the two deployment selectors (``ERMI_TRANSPORT``,
``ERMI_BATCH_MAX``) and the benchmark scale, and variables that once
tuned the runtime are ignored.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.rmi.batching import batch_max_from_env
from repro.rmi.envcfg import env_float, env_int

SRC = Path(repro.__file__).resolve().parent.parent

# Variables that tuned the runtime before its knobs became constructor
# arguments only.
RETIRED = (
    "ERMI_BATCH_INFLIGHT",
    "ERMI_AIO_INFLIGHT",
    "ERMI_BLOCKING_WORKERS",
    "ERMI_CPU_WORKERS",
    "ERMI_CPU_SHM_MIN",
    "ERMI_STORE_LEASE_MS",
    "ERMI_WATCH_QUEUE",
)

KNOBS = [
    ("ERMI_BATCH_MAX", batch_max_from_env),
]


class TestEnvHelpers:
    def test_int_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("ERMI_TEST_KNOB", raising=False)
        assert env_int("ERMI_TEST_KNOB", 7) == 7

    def test_int_default_when_empty(self, monkeypatch):
        monkeypatch.setenv("ERMI_TEST_KNOB", "")
        assert env_int("ERMI_TEST_KNOB", 7) == 7

    def test_int_parses_and_clamps(self, monkeypatch):
        monkeypatch.setenv("ERMI_TEST_KNOB", "42")
        assert env_int("ERMI_TEST_KNOB", 1) == 42
        monkeypatch.setenv("ERMI_TEST_KNOB", "-5")
        assert env_int("ERMI_TEST_KNOB", 1, minimum=1) == 1

    def test_int_malformed_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("ERMI_TEST_KNOB", "64k")
        with pytest.raises(ValueError, match="ERMI_TEST_KNOB"):
            env_int("ERMI_TEST_KNOB", 1)

    def test_float_parses_and_clamps(self, monkeypatch):
        monkeypatch.setenv("ERMI_TEST_KNOB", "2.5")
        assert env_float("ERMI_TEST_KNOB", 0.0) == 2.5
        monkeypatch.setenv("ERMI_TEST_KNOB", "-1.0")
        assert env_float("ERMI_TEST_KNOB", 0.0, minimum=0.0) == 0.0

    def test_float_malformed_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("ERMI_TEST_KNOB", "fast")
        with pytest.raises(ValueError, match="ERMI_TEST_KNOB"):
            env_float("ERMI_TEST_KNOB", 0.0)

    def test_float_rejects_nan(self, monkeypatch):
        # float("nan") parses, but a NaN linger/window poisons every
        # comparison downstream — reject it like any other bad value.
        monkeypatch.setenv("ERMI_TEST_KNOB", "nan")
        with pytest.raises(ValueError, match="ERMI_TEST_KNOB"):
            env_float("ERMI_TEST_KNOB", 0.0)


class TestKnobReaders:
    @pytest.mark.parametrize("name,reader", KNOBS)
    def test_malformed_value_raises_naming_the_variable(
        self, monkeypatch, name, reader
    ):
        monkeypatch.setenv(name, "not-a-number")
        with pytest.raises(ValueError, match=name):
            reader()

    @pytest.mark.parametrize("name,reader", KNOBS)
    def test_unset_returns_default_silently(self, monkeypatch, name, reader):
        monkeypatch.delenv(name, raising=False)
        assert reader() >= 0

    def test_batch_max_parses(self, monkeypatch):
        monkeypatch.setenv("ERMI_BATCH_MAX", "64")
        assert batch_max_from_env() == 64

    def test_bench_scale_rejects_malformed_value(self, monkeypatch):
        """A typo'd smoke scale must not silently run at full scale."""
        from repro.experiments.benchreport import bench_scale

        monkeypatch.setenv("ERMI_BENCH_SCALE", "0.05x")
        with pytest.raises(ValueError, match="ERMI_BENCH_SCALE"):
            bench_scale()

    def test_malformed_knob_fails_at_stub_construction(self, monkeypatch):
        """The contract the fix exists for: a stub built under a typo'd
        environment fails immediately, pointing at the variable."""
        from repro.core.balancer import ElasticStub
        from repro.rmi.transport import DirectTransport

        monkeypatch.setenv("ERMI_BATCH_MAX", "64k")
        with pytest.raises(ValueError, match="ERMI_BATCH_MAX"):
            ElasticStub(DirectTransport(), lambda: None)


class TestRetiredKnobsInert:
    @pytest.fixture(autouse=True)
    def garbage_environment(self, monkeypatch):
        for name in RETIRED:
            monkeypatch.setenv(name, "not-a-number")
        monkeypatch.setenv("ERMI_FASTPATH", "pickle")

    def test_aio_window_keeps_its_default(self):
        from repro.rmi.aio import DEFAULT_INFLIGHT_WINDOW, AsyncioTransport

        transport = AsyncioTransport()
        try:
            assert transport.inflight_limit == DEFAULT_INFLIGHT_WINDOW
        finally:
            transport.shutdown()

    def test_fresh_store_watch_delivers(self):
        from repro.kvstore import HyperStore

        store = HyperStore()
        events = []
        store.watch("k", events.append)
        store.put("k", 1)
        assert [(e.kind, e.value) for e in events] == [("put", 1)]

    def test_cache_leases_for_fifty_ms(self):
        from repro.kvstore import HyperStore, WatchCache

        now = [0.0]
        store = HyperStore()
        cache = WatchCache(store, watch=False, clock=lambda: now[0])
        store.put("k", 1)
        assert cache.get("k") == 1
        store.put("k", 2)
        now[0] = 0.049
        assert cache.get("k") == 1  # still leased
        now[0] = 0.051
        assert cache.get("k") == 2

    def test_marshal_call_stays_zero_copy_in_a_fresh_process(self):
        """The marshal path is fixed at import: a fresh interpreter
        under ``ERMI_FASTPATH=pickle`` still shares immutable calls."""
        code = (
            "from repro.rmi.fastpath import FastPayload, marshal_call\n"
            "print(type(marshal_call(('x',), {})).__name__)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "FastPayload"


def test_source_reads_only_the_known_variables():
    """A new ``ERMI_*`` environment variable must be a deliberate edit
    of this set, not a knob that slips in beside a constructor argument."""
    found = set()
    for path in SRC.joinpath("repro").rglob("*.py"):
        found.update(re.findall(r"ERMI_[A-Z_]+", path.read_text()))
    assert found == {"ERMI_TRANSPORT", "ERMI_BATCH_MAX", "ERMI_BENCH_SCALE"}
