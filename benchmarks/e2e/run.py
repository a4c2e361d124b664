"""The end-to-end benchmark: one command, seven workloads, the live stack.

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --workload dcs_write --seed 7
    python3 benchmarks/e2e/run.py --workload echo_sync --trace   # per-layer
    python3 benchmarks/e2e/run.py --repeat 5            # spread vs the bounds
    python3 benchmarks/e2e/run.py --quick               # smoke: seconds, not minutes

Every metric is printed by name with its unit.  With ``--workload`` the
last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) holding the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace`` its per-layer metrics.
README.md says what each number means and which layer should move it.

This process only starts pinned worker processes and does arithmetic; it
never imports the program, so set-up is all inside what it times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".e2e_out")

WINDOW_S = 2.0
WARMUP_S = 1.0
SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
TRACED_SHARE = 3  # the traced run measures a third of the windows
LEAK_CYCLES = 50
WORKER_TIMEOUT_S = 170


def pick_cpu() -> int:
    """Every workload is one GIL-bound process; left unpinned, where the
    kernel puts its caller and dispatcher threads halves or doubles the
    same code's speed (README, "Why pinned").  No silent fallback."""
    if not hasattr(os, "sched_setaffinity"):
        sys.exit("benchmarks/e2e needs os.sched_setaffinity to pin its workers")
    return max(os.sched_getaffinity(0))


def worker(mode: str, workload: str, seed: int, cpu: int, *extra: object) -> dict:
    """One worker process with a clean environment; its last line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ERMI_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    command = [
        sys.executable, WORKER, "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--cpu", str(cpu), "--t0", repr(time.monotonic()),
        *map(str, extra),
    ]
    done = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.exit(f"{workload}: worker failed\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def shape(seconds: float, quick: bool) -> list[object]:
    if quick:
        return ["--windows", 1, "--window-s", 0.5, "--warmup-s", 0.2,
                "--probe-cycles", 10, "--quick", 1]
    return ["--windows", max(1, int(seconds // WINDOW_S)), "--window-s", WINDOW_S,
            "--warmup-s", WARMUP_S]


def measure(workload: str, seed: int, seconds: float, quick: bool, cpu: int) -> dict:
    """The untraced run: the measured worker, plus set-up sampled in
    fresh processes of its own."""
    setups = [
        worker("setup", workload, seed, cpu)["setup_s"]
        for _ in range(1 if quick else SETUP_SAMPLES - 1)
    ]
    result = worker("run", workload, seed, cpu, *shape(seconds, quick))
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def trace(workload: str, seed: int, seconds: float, quick: bool, cpu: int) -> dict:
    """The traced run: an untraced reference, the same windows with the
    span wrappers installed, and the threaded-transport leak count."""
    args = shape(seconds / TRACED_SHARE, quick)
    cycles = ["--probe-cycles", 10 if quick else LEAK_CYCLES]
    reference = worker("run", workload, seed, cpu, *args, *cycles)
    traced = worker(
        "run", workload, seed, cpu, *args, *cycles, "--trace", 1,
        "--trace-out", os.path.join(OUT, f"trace_{workload}.jsonl"),
    )
    leaks = worker("leaks", workload, seed, cpu, *cycles)
    layers = traced.pop("layers")
    layers["trace.overhead_frac"] = (
        layers.pop("trace.cpu_us_per_call")
        / reference["metrics"]["cpu_us_per_call"] - 1.0
    )
    layers["rmi.transport.threaded_cancel_leaks"] = leaks["cancel_leaks"]
    traced["metrics"] = layers
    return traced


def contract_line(result: dict, declared: list[dict]) -> str:
    """The JSON object the benchmark contract asks for; refuses to print
    a metric set that differs from ``BENCHMARK.json``."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        odd = sorted(set(units) ^ set(result["metrics"]))
        sys.exit(f"metrics differ from BENCHMARK.json: {odd}")
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def show(result: dict, declared: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    print(
        f"{result['workload']}: cpu {result['cpu']}, "
        f"{result['attempted']} attempted, {result['failed']} failed, "
        f"{'correct' if result['correct'] else 'INCORRECT'}"
    )
    raw = ", ".join(f"{name} {value:.4f}" for name, value in result["raw"].items())
    print(f"  machine at {1 / result['slowdown']:.3f} of reference speed; raw: {raw}")
    for note in result["notes"]:
        print(f"  ! {note}")
    for name, value in result["metrics"].items():
        print(f"  {name:<42} {value:>14.4f} {units.get(name, '')}")


def repeat(
    names: list[str], spec: dict, seed: int, seconds: float, count: int,
    quick: bool, cpu: int,
) -> bool:
    """Run the set ``count`` times (seeds ``seed``, ``seed + 1``, ...)
    and print, per workload and end-to-end metric, median, quartiles,
    and whether their distance fits the bound."""
    runs = {
        name: [measure(name, seed + i, seconds, quick, cpu) for i in range(count)]
        for name in names
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "repeat.json"), "w") as handle:
        json.dump(runs, handle)
    fits = True
    print(f"{'workload':<16}{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}")
    for name, results in runs.items():
        if not all(r["correct"] for r in results):
            print(f"{name}: a run was INCORRECT")
            fits = False
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread <= metric["bound"] or metric["name"] == "setup_s"
            fits = fits and ok
            print(f"{name:<16}{metric['name']:<20}{median:>12.4f}{q1:>12.4f}"
                  f"{q3:>12.4f}{spread:>9.4f}{metric['bound']:>7.2f}"
                  f"{'' if ok else '  TOO WIDE'}")
    return fits


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no program to measure: {SRC}/repro is missing")
    cpu = pick_cpu()
    chosen = [args.workload] if args.workload else names
    if args.repeat:
        if args.repeat < 2:
            sys.exit("--repeat needs at least 2 runs to have quartiles")
        ok = repeat(chosen, spec, args.seed, args.seconds, args.repeat, args.quick, cpu)
        sys.exit(0 if ok else 1)
    run = trace if args.trace else measure
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    for name in chosen:
        result = run(name, args.seed, args.seconds, args.quick, cpu)
        show(result, declared)
        if args.workload:
            print(contract_line(result, declared))


if __name__ == "__main__":
    main()
