"""Cpu-suite benchmark: multi-core skeleton execution claims.

Runs the ``cpu`` suite once through
:func:`repro.experiments.benchreport.run_suite` (which validates the
report against its spec), writes ``BENCH_rmi_cpu.json`` to a temporary
directory (never over the committed full-scale baseline), and asserts
the headline claims at floors that depend on the cores actually
available:

- with >= 4 cores, the process pool beats the threaded offload pool by
  >= 3x on cpu-bound handlers of >= 5 ms (>= 2x at smoke scale, where
  per-leg call counts are tiny and noisy);
- shared-memory payload transfer beats pipe-copy on the 4 MiB leg by
  >= 1.5x at full scale regardless of core count (the win is copy
  avoidance, not parallelism);
- on boxes with fewer cores — including the 1-core containers this
  repo often builds in — the parallelism claim is physically
  unobtainable, so the suite only sanity-checks that the pool works
  and that its relative cost shrinks as handler cost grows.

Separately, the zero-overhead gate: a skeleton whose implementation
declares no ``@cpu_bound`` method must dispatch within 5% of the
pre-cpu-dispatch skeleton (a subclass with the cpu branch deleted
outright), using the same best-of-minima retry loop as the
observability overhead gate.

Set ``ERMI_BENCH_SCALE`` (e.g. ``0.05``) to shrink iteration counts
for CI smoke runs.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from typing import Any

import pytest

from repro.experiments.benchreport import (
    CPU_PAYLOAD_MIB,
    SUITES,
    bench_scale,
    format_table,
    load_report,
    run_suite,
    spec_problems,
    validate_report,
)
from repro.rmi.remote import Remote, Skeleton, Stub
from repro.rmi.transport import DirectTransport, Response

SUITE = "cpu"

SCALE = bench_scale()
FULL_SCALE = SCALE >= 0.999

# Parallelism floors (process pool vs threaded offload, >= 5 ms legs).
SPEEDUP_FLOOR_FULL = 3.0
SPEEDUP_FLOOR_SMOKE = 2.0
# Zero-copy floors (shm vs pipe on the 4 MiB leg).
ZERO_COPY_FLOOR_FULL = 1.5
ZERO_COPY_FLOOR_SMOKE = 1.15

CALLS = max(200, int(20_000 * SCALE))
TRIALS = 5
TOLERANCE = 0.05


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def suite(out_dir):
    doc = run_suite(SUITE, str(out_dir))["BENCH_rmi_cpu.json"]
    print("\n" + format_table(doc))
    return {record["name"]: record for record in doc["records"]}, doc["extra"]


class TestCpuBenchmark:
    def test_report_emitted_and_wellformed(self, suite, out_dir):
        path = out_dir / "BENCH_rmi_cpu.json"
        assert path.exists()
        doc = load_report(str(path))
        assert validate_report(doc) == []
        assert spec_problems(SUITES[SUITE], {path.name: doc}) == []
        assert doc["extra"]["cpu_count"] >= 1

    def test_process_pool_parallelism(self, suite):
        """The tentpole claim, gated on the cores the box actually has:
        the GIL serialises the threaded offload pool on pure-python
        handlers, the process pool does not."""
        _, extra = suite
        cores = extra["cpu_count"]
        speedup = extra["speedup"]
        if cores >= 4:
            floor = SPEEDUP_FLOOR_FULL if FULL_SCALE else SPEEDUP_FLOOR_SMOKE
            for cost in (5, 20):
                ratio = speedup[f"proc_vs_thread_{cost}ms"]
                assert ratio >= floor, (
                    f"{cost}ms handlers: process pool only {ratio:.2f}x the "
                    f"threaded offload pool (floor {floor}x on {cores} cores)"
                )
        else:
            # A 1-core box cannot exhibit parallelism: the process pool
            # pays IPC on top of serialised compute.  Assert the pool
            # works and that the overhead amortises as handler cost
            # grows (the ratio must improve from 1ms to 20ms).
            assert speedup["proc_vs_thread_20ms"] > 0.2
            assert (
                speedup["proc_vs_thread_20ms"]
                > speedup["proc_vs_thread_1ms"]
            )

    def test_asyncio_transport_reaches_the_pool(self, suite):
        """The aio leg routes @cpu_bound through the same pool without
        blocking the loop; it must land near the raw-executor leg."""
        records, _ = suite
        aio = records["cpu-aio-proc-5ms"]["calls_per_sec"]
        proc = records["cpu-proc-5ms"]["calls_per_sec"]
        assert aio >= 0.5 * proc, (
            f"aio cpu dispatch {aio:.0f} calls/s < half of the raw "
            f"executor leg {proc:.0f} calls/s"
        )

    def test_zero_copy_beats_pipe_on_large_payloads(self, suite):
        """Copy avoidance is core-count independent: at 4 MiB the shm
        path must beat pickling through the pipe."""
        _, extra = suite
        zero_copy = extra["zero_copy"]
        floor = ZERO_COPY_FLOOR_FULL if FULL_SCALE else ZERO_COPY_FLOOR_SMOKE
        big = max(CPU_PAYLOAD_MIB)
        ratio = zero_copy[f"shm_vs_pipe_{big}mib"]
        assert ratio >= floor, (
            f"{big}MiB payloads: shm only {ratio:.2f}x pipe-copy "
            f"(floor {floor}x)"
        )
        # At 1 MiB the pipe is still competitive on some kernels; shm
        # must at least not be pathologically slower.
        assert zero_copy["shm_vs_pipe_1mib"] >= 0.6

    def test_percentiles_are_coherent(self, suite):
        records, _ = suite
        for record in records.values():
            assert 0 < record["p50_us"] <= record["p99_us"]
            assert record["calls"] > 0
            assert record["elapsed_s"] > 0


# -- zero-overhead gate ----------------------------------------------------


class _Echo(Remote):
    def echo(self, value: Any) -> Any:
        return value


class _PreCpuSkeleton(Skeleton):
    """The dispatch as it was before cpu-bound dispatch: the skeleton's
    own prologue and epilogue around a call with no ``self._cpu``
    branch, so it is the true baseline the no-cpu-methods path is held
    against."""

    def handle(self, request) -> Response:
        refusal, method, _kind, args, kwargs, started = self._accept(request)
        if refusal is not None:
            return refusal
        try:
            result = method(*args, **kwargs)
            if inspect.iscoroutine(result):
                result = asyncio.run(result)
        except Exception as exc:
            return self._reply(request, started, None, exc)
        except BaseException:
            self._release()
            raise
        return self._reply(request, started, result, None)


def _make_stub(skeleton_cls: type[Skeleton]) -> Stub:
    transport = DirectTransport()
    ep = transport.add_endpoint("member-0")
    skeleton = skeleton_cls(_Echo(), transport, ep.endpoint_id)
    return Stub(transport, skeleton.ref())


def _time_calls(stub: Stub, calls: int) -> float:
    stub.echo(0)  # warm caches outside the timed region
    tick = time.perf_counter()
    for i in range(calls):
        stub.echo(i)
    return time.perf_counter() - tick


class TestNoCpuMethodsOverhead:
    def test_dispatch_within_5_percent_when_unused(self):
        """Endpoints with no @cpu_bound methods must dispatch within 5%
        of the pre-cpu-dispatch skeleton (one identity check per call)."""
        current = _make_stub(Skeleton)
        baseline = _make_stub(_PreCpuSkeleton)
        ratios = []
        for _ in range(TRIALS):
            # Interleave sides so drift hits both equally; keep minima.
            base = min(_time_calls(baseline, CALLS) for _ in range(3))
            cur = min(_time_calls(current, CALLS) for _ in range(3))
            ratio = cur / base
            ratios.append(ratio)
            if ratio <= 1.0 + TOLERANCE:
                return
        pytest.fail(
            f"no-cpu-methods dispatch exceeded the {TOLERANCE:.0%} budget "
            f"in every trial: ratios {[f'{r:.3f}' for r in ratios]}"
        )
