"""Validated ``ERMI_*`` environment parsing (satellite bugfix).

A malformed tuning knob must fail at construction with a ValueError
naming the variable — not as an anonymous ``invalid literal`` surfacing
from deep inside a stub constructor, and never silently mid-call.
"""

from __future__ import annotations

import pytest

from repro.kvstore.cache import store_lease_ms_from_env
from repro.kvstore.watch import watch_queue_from_env
from repro.rmi.aio import aio_inflight_from_env, blocking_workers_from_env
from repro.rmi.batching import batch_inflight_from_env, batch_max_from_env
from repro.rmi.cpu import cpu_shm_min_from_env, cpu_workers_from_env
from repro.rmi.envcfg import env_bytes, env_float, env_int

KNOBS = [
    ("ERMI_BATCH_MAX", batch_max_from_env),
    ("ERMI_BATCH_INFLIGHT", batch_inflight_from_env),
    ("ERMI_AIO_INFLIGHT", aio_inflight_from_env),
    ("ERMI_STORE_LEASE_MS", store_lease_ms_from_env),
    ("ERMI_WATCH_QUEUE", watch_queue_from_env),
    ("ERMI_CPU_WORKERS", cpu_workers_from_env),
    ("ERMI_CPU_SHM_MIN", cpu_shm_min_from_env),
    ("ERMI_BLOCKING_WORKERS", blocking_workers_from_env),
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

    def test_bytes_plain_integer(self, monkeypatch):
        monkeypatch.setenv("ERMI_TEST_KNOB", "262144")
        assert env_bytes("ERMI_TEST_KNOB", 0) == 262144

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("256k", 256 * 1024),
            ("256kb", 256 * 1024),
            ("256kib", 256 * 1024),
            ("1m", 1024**2),
            ("1MiB", 1024**2),
            ("2g", 2 * 1024**3),
            (" 4 mib ", 4 * 1024**2),
        ],
    )
    def test_bytes_suffixes_mean_powers_of_1024(
        self, monkeypatch, raw, expected
    ):
        monkeypatch.setenv("ERMI_TEST_KNOB", raw)
        assert env_bytes("ERMI_TEST_KNOB", 0) == expected

    def test_bytes_default_and_minimum(self, monkeypatch):
        monkeypatch.delenv("ERMI_TEST_KNOB", raising=False)
        assert env_bytes("ERMI_TEST_KNOB", 99) == 99
        monkeypatch.setenv("ERMI_TEST_KNOB", "-1")
        assert env_bytes("ERMI_TEST_KNOB", 0, minimum=0) == 0

    def test_bytes_malformed_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("ERMI_TEST_KNOB", "fast")
        with pytest.raises(ValueError, match="ERMI_TEST_KNOB"):
            env_bytes("ERMI_TEST_KNOB", 0)


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

    def test_store_lease_parses_ms(self, monkeypatch):
        monkeypatch.setenv("ERMI_STORE_LEASE_MS", "125.5")
        assert store_lease_ms_from_env() == pytest.approx(125.5)

    def test_bench_scale_rejects_malformed_value(self, monkeypatch):
        """A typo'd smoke scale must not silently run at full scale."""
        from repro.experiments.benchreport import bench_scale

        monkeypatch.setenv("ERMI_BENCH_SCALE", "0.05x")
        with pytest.raises(ValueError, match="ERMI_BENCH_SCALE"):
            bench_scale()

    def test_store_lease_rejects_nan(self, monkeypatch):
        monkeypatch.setenv("ERMI_STORE_LEASE_MS", "nan")
        with pytest.raises(ValueError, match="ERMI_STORE_LEASE_MS"):
            store_lease_ms_from_env()

    def test_watch_queue_parses_and_clamps(self, monkeypatch):
        monkeypatch.setenv("ERMI_WATCH_QUEUE", "16")
        assert watch_queue_from_env() == 16
        # A zero-depth queue could never deliver anything: clamp to 1.
        monkeypatch.setenv("ERMI_WATCH_QUEUE", "0")
        assert watch_queue_from_env() == 1

    def test_malformed_watch_queue_fails_at_subscription(self, monkeypatch):
        """Same contract as the stub knobs: a typo'd queue depth fails
        when the first watch is registered, naming the variable."""
        from repro.kvstore import HyperStore

        monkeypatch.setenv("ERMI_WATCH_QUEUE", "4k")
        store = HyperStore()
        with pytest.raises(ValueError, match="ERMI_WATCH_QUEUE"):
            store.watch("k", lambda event: None)

    def test_cpu_workers_parses(self, monkeypatch):
        monkeypatch.setenv("ERMI_CPU_WORKERS", "3")
        assert cpu_workers_from_env() == 3

    def test_cpu_shm_min_accepts_suffixes(self, monkeypatch):
        monkeypatch.setenv("ERMI_CPU_SHM_MIN", "256k")
        assert cpu_shm_min_from_env() == 256 * 1024
        # 0 disables the shm path entirely (everything goes inline).
        monkeypatch.setenv("ERMI_CPU_SHM_MIN", "0")
        assert cpu_shm_min_from_env() == 0

    def test_blocking_workers_sizes_the_offload_pool(self, monkeypatch):
        from repro.rmi.aio import _LoopRuntime

        monkeypatch.setenv("ERMI_BLOCKING_WORKERS", "2")
        assert blocking_workers_from_env() == 2
        runtime = _LoopRuntime(blocking_workers_from_env())
        try:
            assert runtime.offload._max_workers == 2
        finally:
            runtime.loop.call_soon_threadsafe(runtime.loop.stop)
            runtime.thread.join(timeout=5)
            runtime.offload.shutdown(wait=False)
            runtime.loop.close()

    def test_malformed_knob_fails_at_stub_construction(self, monkeypatch):
        """The contract the fix exists for: a stub built under a typo'd
        environment fails immediately, pointing at the variable."""
        from repro.core.balancer import ElasticStub
        from repro.rmi.transport import DirectTransport

        monkeypatch.setenv("ERMI_BATCH_MAX", "64k")
        with pytest.raises(ValueError, match="ERMI_BATCH_MAX"):
            ElasticStub(DirectTransport(), lambda: None)
