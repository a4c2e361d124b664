"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``figure 7a|7b|7c..7j|8a|8b`` — regenerate one evaluation figure and
  print its rows/series;
- ``ablation burst|step|policy|provisioning`` — run one ablation study;
- ``analyze <module>:<Class>`` — run the preprocessor's static analysis
  on an elastic class and print the report;
- ``transform <file.py>`` — apply the Figure 6 source rewrite and print
  (or write) the transformed module;
- ``bench`` — run the RMI benchmark suites (async transport, sharded
  routing, cpu pool), write their ``BENCH_*.json`` reports (schema
  documented in README.md) and, with ``--check DIR``, gate them against
  the committed baselines;
- ``chaos`` — run the scripted fault-injection scenario and emit a
  ``CHAOS_report.json`` recovery-latency report (schema
  ``repro.chaos/v1``); exits non-zero if any failure leaked to the
  client or the pool did not recover to its minimum size.
- ``trace`` — run the seeded traced scenario (``repro.obs``) and write
  the structured event timeline as JSONL; byte-identical across runs
  with the same seed.
- ``metrics`` — fold a trace (a saved JSONL file, or a fresh seeded
  run) into the ``repro.obs/v1`` summary document, whose agility /
  provisioning / QoS numbers come from the same ``repro.metrics``
  trackers the experiments use.
- ``scenario`` — run one scenario from the open-loop matrix (or
  ``all``/``list``): seeded, replayable, emitting a ``repro.obs/v1``
  summary with tail-latency, agility, and QoS sections.  ``scenario
  all --summary-dir .`` rewrites the committed ``SCENARIO_<name>.json``
  files, which CI compares byte for byte with a fresh run.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import (
        FIGURE7_PANELS,
        figure7_agility,
        figure7a_workload,
        figure7b_workload,
        figure8_provisioning,
        print_agility_panel,
        print_provisioning_figure,
    )

    fig = args.id
    if fig in ("7a", "7b"):
        trace = (
            figure7a_workload(args.app)
            if fig == "7a"
            else figure7b_workload(args.app)
        )
        print(f"Figure {fig} ({args.app}): minute -> rate")
        for minute, rate in trace[:: max(1, len(trace) // 25)]:
            print(f"  {minute:6.0f}  {rate:12.0f}")
        return 0
    if fig in FIGURE7_PANELS:
        panel = figure7_agility(fig, seed=args.seed)
        print(print_agility_panel(panel))
        return 0
    if fig in ("8a", "8b"):
        workload = "abrupt" if fig == "8a" else "cyclic"
        print(print_provisioning_figure(
            figure8_provisioning(workload, seed=args.seed)
        ))
        return 0
    print(f"unknown figure: {fig}", file=sys.stderr)
    return 2


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    runners = {
        "burst": ablations.burst_interval_ablation,
        "step": ablations.max_step_ablation,
        "policy": ablations.policy_ablation,
        "provisioning": ablations.provisioning_ablation,
    }
    results = runners[args.which](
        app=args.app, workload=args.workload, seed=args.seed
    )
    print(f"{args.which} ablation ({args.app}, {args.workload}):")
    for key, result in results.items():
        print(f"  {str(key):<24} avg agility {result.average_agility:6.2f}  "
              f"max {result.max_agility:5.1f}  "
              f"zero {100 * result.zero_fraction:3.0f}%")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.preprocessor import analyze

    module_name, _, class_name = args.target.partition(":")
    if not class_name:
        print("target must be <module>:<Class>", file=sys.stderr)
        return 2
    module = importlib.import_module(module_name)
    cls = getattr(module, class_name)
    report = analyze(cls)
    print(report.summary())
    return 0 if report.ok() else 1


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro.preprocessor import transform_source

    with open(args.file) as handle:
        source = handle.read()
    result = transform_source(source)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result + "\n")
        print(f"wrote {args.output}")
    else:
        print(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ElasticRMI reproduction: experiments and tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate an evaluation figure")
    figure.add_argument("id", help="7a, 7b, 7c-7j, 8a, or 8b")
    figure.add_argument("--app", default="marketcetera",
                        help="application for 7a/7b traces")
    figure.add_argument("--seed", type=int, default=0)
    figure.set_defaults(fn=_cmd_figure)

    ablation = sub.add_parser("ablation", help="run an ablation study")
    ablation.add_argument(
        "which", choices=("burst", "step", "policy", "provisioning")
    )
    ablation.add_argument("--app", default="marketcetera")
    ablation.add_argument("--workload", default="abrupt",
                          choices=("abrupt", "cyclic"))
    ablation.add_argument("--seed", type=int, default=0)
    ablation.set_defaults(fn=_cmd_ablation)

    analyze_cmd = sub.add_parser(
        "analyze", help="static analysis of an elastic class"
    )
    analyze_cmd.add_argument("target", help="<module>:<Class>")
    analyze_cmd.set_defaults(fn=_cmd_analyze)

    transform = sub.add_parser(
        "transform", help="apply the Figure 6 source rewrite"
    )
    transform.add_argument("file")
    transform.add_argument("-o", "--output", default=None)
    transform.set_defaults(fn=_cmd_transform)

    report = sub.add_parser(
        "report", help="run the full evaluation and emit a markdown report"
    )
    report.add_argument("-o", "--output", default=None)
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(fn=_cmd_report)

    bench_cmd = sub.add_parser(
        "bench",
        help="run the RMI benchmark suites (async + shard + cpu) and write "
        "their BENCH_*.json reports",
    )
    bench_cmd.add_argument(
        "--suite", default="all",
        help="a suite from repro.experiments.benchreport.SUITES, or all "
        "(default)",
    )
    bench_cmd.add_argument(
        "--out-dir", metavar="DIR", default=".",
        help="directory the reports are written to (default: .)",
    )
    bench_cmd.add_argument(
        "--check", metavar="DIR", default=None,
        help="gate each report against the same-named baseline in DIR, "
        "read before the run writes anything; exit non-zero on a regression",
    )
    bench_cmd.set_defaults(fn=_cmd_bench)

    chaos_cmd = sub.add_parser(
        "chaos", help="run the scripted fault-injection scenario"
    )
    chaos_cmd.add_argument("--seed", type=int, default=0)
    chaos_cmd.add_argument(
        "--duration", type=float, default=60.0,
        help="virtual seconds to simulate (default: 60)",
    )
    chaos_cmd.add_argument(
        "-o", "--output", default="CHAOS_report.json",
        help="report path (default: CHAOS_report.json)",
    )
    chaos_cmd.set_defaults(fn=_cmd_chaos)

    trace_cmd = sub.add_parser(
        "trace", help="run the seeded traced scenario, write a JSONL trace"
    )
    trace_cmd.add_argument("--seed", type=int, default=0)
    trace_cmd.add_argument(
        "--duration", type=float, default=90.0,
        help="virtual seconds to simulate (default: 90)",
    )
    trace_cmd.add_argument(
        "-o", "--output", default="TRACE_events.jsonl",
        help="trace path (default: TRACE_events.jsonl)",
    )
    trace_cmd.add_argument(
        "--summary", default=None, metavar="PATH",
        help="also write the repro.obs/v1 summary JSON here",
    )
    trace_cmd.set_defaults(fn=_cmd_trace)

    metrics_cmd = sub.add_parser(
        "metrics", help="fold a trace into the repro.obs/v1 summary"
    )
    metrics_cmd.add_argument(
        "-i", "--input", default=None, metavar="TRACE",
        help="JSONL trace to summarize (default: run a fresh seeded scenario)",
    )
    metrics_cmd.add_argument("--seed", type=int, default=0)
    metrics_cmd.add_argument(
        "--duration", type=float, default=90.0,
        help="virtual seconds when running fresh (default: 90)",
    )
    metrics_cmd.add_argument(
        "-o", "--output", default=None,
        help="write the summary JSON here instead of stdout",
    )
    metrics_cmd.set_defaults(fn=_cmd_metrics)

    scenario_cmd = sub.add_parser(
        "scenario",
        help="run an open-loop load scenario (seeded, replayable)",
    )
    scenario_cmd.add_argument(
        "name",
        help="scenario name, 'all' for the whole matrix, or 'list'",
    )
    scenario_cmd.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's committed seed",
    )
    scenario_cmd.add_argument(
        "--scale", type=float, default=1.0,
        help="rate x scale, service / scale: same dynamics, fewer "
        "simulated events (default 1.0)",
    )
    scenario_cmd.add_argument(
        "--mode", choices=("sim", "live"), default="sim",
        help="virtual-time simulation (default) or wall-clock live run "
        "on the asyncio transport",
    )
    scenario_cmd.add_argument(
        "--live-duration", type=float, default=8.0,
        help="wall seconds the compressed live replay runs (default 8)",
    )
    scenario_cmd.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the repro.obs/v1 summary JSON here (single scenario)",
    )
    scenario_cmd.add_argument(
        "--summary-dir", default=None, metavar="DIR",
        help="write each scenario's summary to DIR/SCENARIO_<name>.json",
    )
    scenario_cmd.set_defaults(fn=_cmd_scenario)

    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import run_full_evaluation

    evaluation = run_full_evaluation(seed=args.seed)
    text = evaluation.to_markdown()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0 if all(held for _, held in evaluation.claims()) else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.benchreport import (
        SUITES,
        check_suite,
        format_table,
        load_baselines,
        run_suite,
    )

    if args.suite != "all" and args.suite not in SUITES:
        print(
            f"bench: unknown suite {args.suite!r} "
            f"(choose from all, {', '.join(SUITES)})",
            file=sys.stderr,
        )
        return 2
    status = 0
    for name in SUITES if args.suite == "all" else (args.suite,):
        baselines = (
            None if args.check is None else load_baselines(name, args.check)
        )
        try:
            docs = run_suite(name, args.out_dir)
        except ValueError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            status = 1
            continue
        for file, doc in docs.items():
            print(format_table(doc))
            print(f"wrote {os.path.join(args.out_dir, file)}")
        if baselines is None:
            continue
        failures, lines = check_suite(name, docs, baselines)
        print("\n".join(lines))
        if failures:
            print(
                f"REGRESSION ({name}) vs {args.check}: {', '.join(failures)}",
                file=sys.stderr,
            )
            status = 1
        else:
            print(f"bench check OK ({name})")
    return status


def _cmd_chaos(args: argparse.Namespace) -> int:
    # Imported lazily (like every command) — and scenario in particular
    # must stay out of repro.faults.__init__ to avoid an import cycle
    # with repro.core.
    from repro.faults.scenario import run_chaos_scenario

    report = run_chaos_scenario(seed=args.seed, duration=args.duration)
    with open(args.output, "w") as handle:
        handle.write(report.to_json() + "\n")
    print(report.summary())
    print(f"wrote {args.output}")
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    # Lazy import; repro.obs.scenario imports repro.core (layering note
    # in that module's docstring).
    from repro.obs.scenario import run_traced_scenario

    run = run_traced_scenario(seed=args.seed, duration=args.duration)
    with open(args.output, "w") as handle:
        handle.write(run.to_jsonl())
    if args.summary:
        with open(args.summary, "w") as handle:
            handle.write(run.summary_json() + "\n")
    print(run.describe())
    print(f"wrote {args.output}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import load_trace, summarize_trace, validate_summary

    if args.input is not None:
        events = load_trace(args.input)
        summary = summarize_trace(events)
    else:
        from repro.obs.scenario import run_traced_scenario

        run = run_traced_scenario(seed=args.seed, duration=args.duration)
        summary = run.summary()
    problems = validate_summary(summary)
    if problems:
        for problem in problems:
            print(f"invalid summary: {problem}", file=sys.stderr)
        return 1
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import validate_summary
    from repro.scenarios import SCENARIOS, run_scenario

    if args.name == "list":
        print(f"{'name':<18} {'tenants':<28} {'users':>10} {'dur s':>7}")
        for spec in SCENARIOS.values():
            tenants = ",".join(t.name for t in spec.tenants)
            print(
                f"{spec.name:<18} {tenants:<28} {spec.users:>10} "
                f"{spec.duration_s:>7.0f}  {spec.title}"
            )
        return 0
    names = list(SCENARIOS) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(known: {', '.join(SCENARIOS)})",
            file=sys.stderr,
        )
        return 2
    if args.output is not None and len(names) > 1:
        print("-o works with a single scenario; use --summary-dir",
              file=sys.stderr)
        return 2
    status = 0
    for name in names:
        result = run_scenario(
            name,
            seed=args.seed,
            scale=args.scale,
            mode=args.mode,
            live_duration_s=args.live_duration,
        )
        print(result.describe())
        summary = result.summary()
        problems = validate_summary(summary)
        for problem in problems:
            print(f"invalid summary ({name}): {problem}", file=sys.stderr)
            status = 1
        text = json.dumps(summary, indent=2, sort_keys=True)
        if args.output is not None:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}")
        if args.summary_dir is not None:
            os.makedirs(args.summary_dir, exist_ok=True)
            path = os.path.join(
                args.summary_dir, f"SCENARIO_{name}.json"
            )
            with open(path, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {path}")
    return status


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
