"""One workload, in a process of its own, pinned to one CPU.

``run.py`` starts this once per run with a clean environment; the last
stdout line is the run's result as one JSON object.  A fresh interpreter
per run means set-up is paid (and timed) every time, and one workload's
threads, caches and garbage never reach the next.

Modes: ``run`` measures windows and the grow probe; ``setup`` stops at
the first verified reply (set-up time is sampled several times per
run); ``leaks`` counts the known ``CancelledError`` leak of the threaded
transport under churn.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import threading
import time

CHURN_PERIOD_S = 0.050
CHURN_HOLD_S = 0.025
PROBE_CYCLES = 200
MIN_WINDOW_SAMPLES = 200  # so that at least ten samples lie beyond the p95
SETUP_REF_PASSES = 16  # reference passes that put one set-up at reference speed


def build(workload, seed):
    """Runtime, pool, stub and source; returns them with how long the
    three runtime calls took (ms)."""
    from loadgen import wait_active
    from repro.core.runtime import ElasticRuntime
    from repro.rmi.batching import RequestBatcher

    t0 = time.perf_counter()
    runtime = ElasticRuntime.local(transport=workload.transport, seed=seed)
    t1 = time.perf_counter()
    pool = runtime.new_pool(workload.service, name="bench", min_size=workload.pool_size)
    wait_active(pool, workload.pool_size)
    t2 = time.perf_counter()
    batcher = None
    if workload.batch:
        batcher = RequestBatcher(
            runtime.transport, max_batch=workload.batch, linger=0.0
        )
    stub = runtime.stub("bench", batcher=batcher)
    t3 = time.perf_counter()
    source = workload.source(seed)
    source.prepare(stub)
    parts = {
        "core.runtime.local_ms": (t1 - t0) * 1e3,
        "core.runtime.new_pool_ms": (t2 - t1) * 1e3,
        "core.runtime.stub_ms": (t3 - t2) * 1e3,
    }
    return runtime, pool, stub, source, parts


def first_reply(stub, source) -> bool:
    args = source.next()
    return source.check(args, getattr(stub, source.method)(*args))


def run(args, workload) -> dict:
    import loadgen
    from workloads import BURST_RATE, BURST_SHARE, IDLE_RATE

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.calibrate()
        layers.install(tracer, workload.service, workload.methods)
    runtime, pool, stub, source, parts = build(workload, args.seed)
    correct = first_reply(stub, source)
    raw_setup_s = time.monotonic() - args.t0
    ref = loadgen.Reference()
    for _ in range(SETUP_REF_PASSES):
        ref.sample()
    setup_s = raw_setup_s / ref.slowdown(0.0, loadgen.pc())
    if args.mode == "setup":
        runtime.shutdown()
        return {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "correct": correct}

    notes: list[str] = []
    agent = runtime.record("bench").sentinel_agent
    watch = loadgen.GrowWatch(runtime, pool, stub)
    step = loadgen.make_step(workload, stub, source, tracer, watch)
    counters = Counters(runtime, pool, stub)
    late: list[float] = []
    inflight_hwm = 0
    probe_lat: list[float] = []

    def begin_window() -> None:
        counters.resume()
        if tracer is not None:
            tracer.resume()

    def end_window() -> None:
        counters.pause()
        if tracer is not None:
            tracer.pause()

    def probe(cycles: int) -> None:
        probe_lat.extend(
            loadgen.grow_probe(runtime, pool, agent, watch, step, ref, cycles)
        )

    if workload.loop == "open":
        arrivals = loadgen.arrival_offsets(
            args.seed, args.windows, args.window_s, args.warmup_s,
            BURST_RATE, BURST_SHARE, IDLE_RATE,
        )
        rows, late, inflight_hwm = loadgen.open_loop(
            stub, source, tracer, ref, arrivals,
            args.windows, args.window_s, args.warmup_s,
            BURST_SHARE * args.window_s, begin_window, workload.limit_us,
        )
        end_window()
        probe(args.probe_cycles)
    elif workload.churn:
        stop = threading.Event()
        thread = threading.Thread(
            target=loadgen.churn,
            args=(pool, agent, watch, stop, CHURN_PERIOD_S, CHURN_HOLD_S),
            name="e2e-churn",
        )

        def begin_churning() -> None:
            begin_window()
            if not thread.is_alive():
                thread.start()

        rows = loadgen.run_windows(
            step, ref, args.windows, args.window_s, args.warmup_s,
            begin_churning, end_window, workload.limit_us,
        )
        stop.set()
        thread.join(loadgen.WAIT_S)
        if thread.is_alive():
            notes.append("the churn thread did not stop")
            correct = False
    else:
        # The probe takes a turn after every window, so a disturbance a
        # second long cannot cover all of its cycles.
        share = -(-args.probe_cycles // args.windows)

        def end_and_probe() -> None:
            end_window()
            probe(share)

        rows = loadgen.run_windows(
            step, ref, args.windows, args.window_s, args.warmup_s,
            begin_window, end_and_probe, workload.limit_us,
        )
    if tracer is not None:
        tracer.on = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r["attempted"] for r in rows) + len(probe_lat)
    failed = sum(r["failed"] for r in rows) + sum(x < 0 for x in probe_lat)
    checked, wrong = source.verify(stub, pool)
    attempted += checked
    failed += wrong
    if wrong:
        notes.append(f"{wrong} of {checked} end-of-run checks failed")
    if pool.size() != workload.pool_size:
        notes.append(f"pool ended at {pool.size()} members, not {workload.pool_size}")
        correct = False
    if not args.quick and min(r["samples"] for r in rows) < MIN_WINDOW_SAMPLES:
        notes.append(f"a window holds fewer than {MIN_WINDOW_SAMPLES} samples")
        correct = False
    if len(watch.totals) < watch.grows // 2:
        notes.append(f"only {len(watch.totals)} of {watch.grows} grows were served")
        correct = False

    # A grow is mostly thread wake-ups and CPU work: at reference speed,
    # by the passes within a second of it.  Not so where the new member's
    # first call waits behind sleeping workers (the open loop).
    grows = [
        total if workload.loop == "open" else total / ref.slowdown(at - 1.0, at + 1.0)
        for at, total in zip(watch.served_at, watch.totals)
    ]
    median = loadgen.median_of
    metrics = {
        "setup_s": setup_s,
        "calls_per_s": median(rows, "calls_per_s"),
        "call_p50_us": median(rows, "call_p50_us"),
        "call_p95_us": median(rows, "call_p95_us"),
        "cpu_us_per_call": median(rows, "cpu_us_per_call"),
        "within_limit_frac": median(rows, "within_limit_frac"),
        "peak_rss_mb": rss_mb,
        "grow_to_served_ms": statistics.median(grows) * 1e3,
    }
    result = {
        "workload": workload.name,
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "windows": rows,
        "slowdown": median(rows, "slowdown"),
        "raw": {
            "setup_s": raw_setup_s,
            "calls_per_s": median(rows, "raw_calls_per_s"),
            "call_p50_us": median(rows, "raw_p50_us"),
            "grow_to_served_ms": statistics.median(watch.totals) * 1e3,
        },
        "grow_cycles": len(watch.totals),
        "notes": notes,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(
            tracer, runtime, pool, watch, counters, parts, result, late,
            inflight_hwm,
        )
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            result["layers"]["trace.spans"] = tracer.write(args.trace_out)
    runtime.shutdown()
    return result


class Counters:
    """The program's own public counters, summed over the windows."""

    def __init__(self, runtime, pool, stub) -> None:
        self._runtime, self._pool, self._stub = runtime, pool, stub
        self._before: dict[str, float] = {}
        self.delta: dict[str, float] = dict.fromkeys(self._read(), 0)

    def _read(self) -> dict[str, float]:
        cache = self._runtime.store_cache.stats()
        batcher = self._stub.batcher
        return {
            "messages": self._runtime.transport.messages_sent,
            "batches": batcher.stats.batches if batcher else 0,
            "entries": batcher.stats.entries if batcher else 0,
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "refreshes": sum(
                stats.calls
                for member in list(self._pool.members.values())
                if member.skeleton is not None
                for method, stats in member.skeleton.stats.snapshot().items()
                if method == "ermi_member_identities"
            ),
        }

    def resume(self) -> None:
        self._before = self._read()

    def pause(self) -> None:
        for name, value in self._read().items():
            self.delta[name] += value - self._before[name]


def layer_metrics(
    tracer, runtime, pool, watch, counters, parts, result, late, inflight_hwm,
) -> dict:
    """Span times are as the clock read them, so the two ``trace.*_ratio``
    checks compare them with the run's raw figures."""
    import layers
    from loadgen import percentile

    data = layers.data_plane(tracer, counters.delta["refreshes"])
    control = layers.control_plane(tracer)
    calls = data.pop("calls")
    root_p50_us = data.pop("root_p50_us")
    delta = counters.delta
    lookups = delta["cache_hits"] + delta["cache_misses"]
    part_us = [
        statistics.median(p[i] for p in watch.parts) * 1e6 for i in range(4)
    ]
    downs = [r.latency for r in pool.provisioning_records if r.direction == "down"]
    ordered_late = sorted(late)
    out = dict(data)
    out.update(parts)
    out.update(
        {
            "rmi.batching.batches": delta["batches"],
            "rmi.batching.entries_per_batch": (
                delta["entries"] / delta["batches"] if delta["batches"] else 0.0
            ),
            "rmi.transport.messages_per_call": delta["messages"] / calls,
            "rmi.aio.inflight_hwm": max(
                getattr(runtime.transport, "inflight_hwm", 0), inflight_hwm
            ),
            "kvstore.cache.hit_frac": delta["cache_hits"] / lookups if lookups else 0.0,
            "cluster.master.request_us": control["cluster.master.request_us"],
            "cluster.master.release_us": control["cluster.master.release_us"],
            "core.pool.grow_call_us": part_us[0],
            "core.pool.activate_us": part_us[1],
            "core.pool.epoch_visible_us": part_us[2],
            "core.pool.first_call_us": part_us[3],
            "core.pool.shrink_ms": statistics.fmean(downs) * 1e3 if downs else 0.0,
            "groupcomm.channel.join_us": control["groupcomm.channel.join_us"],
            "groupcomm.channel.broadcasts_per_resize": (
                control["groupcomm.channel.broadcasts"] / control["resizes"]
                if control["resizes"] else 0.0
            ),
            "core.sentinel.tick_us": control["core.sentinel.tick_us"],
            "loadgen.late_p50_us": percentile(ordered_late, 50) * 1e6 if late else 0.0,
            "loadgen.late_p99_us": percentile(ordered_late, 99) * 1e6 if late else 0.0,
            "loadgen.failed_frac": result["failed"] / result["attempted"],
            "loadgen.slowdown": result["slowdown"],
            "trace.root_p50_ratio": root_p50_us / result["raw"]["call_p50_us"],
            "trace.grow_parts_ratio": (
                sum(part_us) / (result["raw"]["grow_to_served_ms"] * 1e3)
            ),
            "trace.span_cost_us": tracer.span_cost_ns / 1e3,
            "trace.cpu_us_per_call": result["metrics"]["cpu_us_per_call"],
        }
    )
    return out


def leaks(args) -> dict:
    """The seed's known defect, counted: on the threaded transport a
    shrink can cancel a call already queued at the dying dispatcher, and
    the caller sees a bare ``CancelledError`` instead of a retry."""
    from concurrent.futures import CancelledError

    import loadgen
    from workloads import WORKLOADS

    workload = WORKLOADS["echo_sync"]
    runtime, pool, stub, source, _ = build(workload, args.seed)
    agent = runtime.record("bench").sentinel_agent
    watch = loadgen.GrowWatch(runtime, pool, stub)
    stop = threading.Event()
    thread = threading.Thread(
        target=loadgen.churn,
        args=(pool, agent, watch, stop, CHURN_PERIOD_S, CHURN_HOLD_S, args.probe_cycles),
        name="e2e-churn",
    )
    thread.start()
    leaked = other = calls = 0
    while thread.is_alive():
        value = source.next()
        calls += 1
        try:
            stub.echo(*value)
        except CancelledError:
            leaked += 1
        except Exception:
            other += 1
        if watch.member is not None:
            watch.poll()
    thread.join()
    runtime.shutdown()
    return {"cancel_leaks": leaked, "other_failures": other, "calls": calls}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("run", "setup", "leaks"), default="run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--windows", type=int, default=6)
    parser.add_argument("--window-s", type=float, default=2.0)
    parser.add_argument("--warmup-s", type=float, default=1.0)
    parser.add_argument("--probe-cycles", type=int, default=PROBE_CYCLES)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--quick", type=int, default=0)
    args = parser.parse_args()
    # Pin before importing the program, so set-up is measured pinned too.
    os.sched_setaffinity(0, {args.cpu})
    from workloads import WORKLOADS

    if args.mode == "leaks":
        result = leaks(args)
    else:
        result = run(args, WORKLOADS[args.workload])
    result["cpu"] = sorted(os.sched_getaffinity(0))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
