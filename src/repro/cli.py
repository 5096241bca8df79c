"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro table1   [--cases N]
    python -m repro figure3
    python -m repro figure4
    python -m repro figure5  [--requests N] [--horizon H]
    python -m repro ablations [--cases N]
    python -m repro control-sweep [--quick] [--json PATH]
    python -m repro scenario [NAME|PATH] [--list] [--driver sim|thread] [--multiplier M ...] [--shards N ...] [--clusters N ...] [--horizon S] [--seed S] [--controlled] [--batched] [--store PATH] [--crash-restart] [--json PATH] [--trace PATH]
    python -m repro bench [--quick] [--baseline PATH] [--tolerance F]
    python -m repro trace-report PATH
    python -m repro all

Each subcommand prints the regenerated table/series (the same rows the
paper reports) to stdout; ``figure4``/``figure5`` additionally render an
ASCII chart. ``scenario`` runs one declarative document from the
built-in catalog (or any YAML/JSON spec path) through the unified spec →
compile → run pipeline, at every ``--clusters`` × ``--shards`` ×
``--multiplier`` point; ``scenario audio_lab`` is the paper's own
testbed under load, ``--clusters N`` federates N copies of it, and
``scenario audio_storm`` holds the lab's sessions through a fault storm
whose rates ``--multiplier`` scales. Its ``--trace`` writes the run's
structured span trace as NDJSON (byte-identical per seed under the sim
driver), which ``trace-report`` renders as a per-phase latency breakdown
with critical-path summaries.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments.ablations import run_all_ablations
from repro.experiments.bench_control import (
    load_baseline as load_control_baseline,
    run_control_bench,
    verify as verify_control,
    verify_payload as verify_control_payload,
)
from repro.experiments.bench_pareto import (
    compare_to_baseline as compare_pareto_baseline,
    load_baseline as load_pareto_baseline,
    run_pareto_bench,
    verify as verify_pareto,
    verify_payload as verify_pareto_payload,
)
from repro.experiments.bench_serving import (
    compare_to_baseline,
    load_baseline,
    run_distribution_bench,
    run_serving_bench,
)
from repro.experiments.figure3 import run_prototype_scenario
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.load_sweep import run_load_sweep
from repro.experiments.table1 import run_table1
from repro.observability.report import TraceReport
from repro.reporting import render_overhead_bars, render_success_series
from repro.workloads.generator import Table1Workload
from repro.workloads.requests import figure5_trace


def _cmd_table1(args: argparse.Namespace) -> None:
    result = run_table1(Table1Workload(case_count=args.cases))
    print(result.format_table())


def _cmd_figure3(args: argparse.Namespace) -> None:
    print(run_prototype_scenario().format_report())


def _cmd_figure4(args: argparse.Namespace) -> None:
    breakdown = run_figure4(run_prototype_scenario(measure_duration_s=5.0))
    print(breakdown.format_table())
    print()
    print(render_overhead_bars(breakdown.rows, breakdown.labels))


def _cmd_figure5(args: argparse.Namespace) -> None:
    trace = figure5_trace(request_count=args.requests, horizon_h=args.horizon)
    window = args.horizon / 20.0
    result = run_figure5(trace=trace, window_h=window)
    print(result.format_series())
    print()
    print(
        render_success_series(
            result.series["heuristic"].sample_times_h,
            {
                name: series.success_rates
                for name, series in result.series.items()
            },
        )
    )


def _cmd_ablations(args: argparse.Namespace) -> None:
    for result in run_all_ablations(case_count=args.cases):
        print(result.format_table())
        print()


def _cmd_load_sweep(args: argparse.Namespace) -> None:
    result = run_load_sweep(
        base_requests=args.requests, horizon_h=args.horizon
    )
    print(result.format_table())


def _cmd_control_sweep(args: argparse.Namespace) -> None:
    result = run_control_bench(quick=args.quick, seed=args.seed)
    print(result.format_table())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"\ncontrol bench JSON written to {args.json}")
    problems = verify_control(result)
    if problems:
        print("\nCONTROL PLANE STOPPED HELPING:")
        for message in problems:
            print(f"  - {message}")
        raise SystemExit(1)
    print("\ncontrol gate passed (controlled beats reactive)")


def _cmd_scenario(args: argparse.Namespace) -> None:
    import dataclasses
    from pathlib import Path

    from repro.scenarios import (
        ScenarioValidationError,
        catalog_scenarios,
        load_catalog_scenario,
        load_scenario,
        run_crash_restart,
        run_sweep,
        scenario_path,
    )
    from repro.store import SqliteRecordStore

    if args.list or args.name is None:
        print("built-in scenarios:")
        for name in catalog_scenarios():
            spec = load_scenario(scenario_path(name))
            summary = " ".join(spec.description.split()) or "(no description)"
            print(f"  {name:<24} {summary}")
        if args.name is None and not args.list:
            print("\nrun one with: python -m repro scenario <name>")
        return

    try:
        if Path(args.name).is_file():
            spec = load_scenario(Path(args.name))
        else:
            spec = load_catalog_scenario(args.name)
    except ScenarioValidationError as exc:
        raise SystemExit(f"invalid scenario {args.name}: {exc}") from None
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)

    if args.crash_restart:
        if (
            len(args.multiplier) > 1
            or args.shards
            or args.clusters
            or args.horizon
        ):
            raise SystemExit(
                "--crash-restart runs one point: one --multiplier, "
                "no --shards, --clusters or --horizon"
            )
        try:
            result = run_crash_restart(
                spec,
                store_path=args.store,
                crash_at_fraction=args.crash_at,
                multiplier=args.multiplier[0],
            )
        except ValueError as exc:
            raise SystemExit(f"invalid scenario {args.name}: {exc}") from None
        report = result.report
        print(
            f"Scenario {result.scenario!r} crash-restart: "
            f"crashed epoch {result.crashed_epoch} at t={result.crash_at_s:g}s "
            f"({result.pre_crash_admitted} admitted, "
            f"{result.active_at_crash} active), "
            f"epoch {result.resumed_epoch} re-adopted {report.readopted}, "
            f"tore down {report.torn_down}, "
            f"reconciled {report.reconciled_txns} txn(s), "
            f"ledger {'balanced' if result.balanced else 'UNBALANCED'}"
        )
        print()
        print(result.resumed.format_table())
        if args.trace is not None:
            print("--trace is ignored with --crash-restart")
            args.trace = None
        if not result.balanced:
            raise SystemExit(1)
        trace_ndjson = ""
    else:
        store = SqliteRecordStore(args.store) if args.store else None
        try:
            sweep = run_sweep(
                spec,
                args.multiplier,
                shards=args.shards,
                clusters=args.clusters,
                horizon_s=args.horizon,
                driver=args.driver,
                trace=args.trace is not None,
                controlled=True if args.controlled else None,
                batched=args.batched,
                store=store,
            )
        except ValueError as exc:
            raise SystemExit(f"invalid scenario {args.name}: {exc}") from None
        # One point writes the single-run JSON and table.
        result = sweep.points[0] if len(sweep.points) == 1 else sweep
        print(result.format_table())
        trace_ndjson = sweep.trace_ndjson()
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
        print(f"\nscenario JSON written to {args.json}")
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(trace_ndjson)
        print(f"span trace NDJSON written to {args.trace}")


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _refuse_self_gating(args: argparse.Namespace) -> None:
    """Exit when a bench would write its output over the baseline it reads.

    Each artifact is written before its baseline is loaded, so such a run
    would be compared with itself and always pass.
    """
    pairs = (
        ("--serving-json", args.serving_json, "--baseline", args.baseline),
        ("--control-json", args.control_json,
         "--control-baseline", args.control_baseline),
        ("--pareto-json", args.pareto_json,
         "--pareto-baseline", args.pareto_baseline),
    )
    for output_flag, output, baseline_flag, baseline in pairs:
        if baseline is not None and _same_file(output, baseline):
            raise SystemExit(
                f"bench: {output_flag} and {baseline_flag} are the same file "
                f"({baseline}); the run would be gated against itself. "
                f"Write {output_flag} elsewhere."
            )


def _cmd_bench(args: argparse.Namespace) -> None:
    _refuse_self_gating(args)
    serving = run_serving_bench(quick=args.quick)
    print(serving.format_table())
    with open(args.serving_json, "w", encoding="utf-8") as handle:
        handle.write(serving.to_json())
    print(f"\nserving bench JSON written to {args.serving_json}")
    if not args.no_distribution:
        print()
        distribution = run_distribution_bench(quick=args.quick)
        print(distribution.format_table())
        with open(args.distribution_json, "w", encoding="utf-8") as handle:
            handle.write(distribution.to_json())
        print(f"\ndistribution bench JSON written to {args.distribution_json}")
    if not args.no_control:
        print()
        control = run_control_bench(quick=args.quick)
        print(control.format_table())
        with open(args.control_json, "w", encoding="utf-8") as handle:
            handle.write(control.to_json())
        print(f"\ncontrol bench JSON written to {args.control_json}")
        problems = verify_control(control)
        if args.control_baseline is not None:
            committed = load_control_baseline(args.control_baseline)
            if committed is None:
                print(f"no control baseline at {args.control_baseline}")
            else:
                problems += [
                    f"committed {args.control_baseline}: {message}"
                    for message in verify_control_payload(committed)
                ]
        if problems:
            print("\nCONTROL PLANE STOPPED HELPING:")
            for message in problems:
                print(f"  - {message}")
            raise SystemExit(1)
        print("control gate passed (controlled beats reactive)")
    if not args.no_pareto:
        print()
        pareto = run_pareto_bench(quick=args.quick)
        print(pareto.format_table())
        with open(args.pareto_json, "w", encoding="utf-8") as handle:
            handle.write(pareto.to_json())
        print(f"\npareto bench JSON written to {args.pareto_json}")
        problems = verify_pareto(pareto)
        if args.pareto_baseline is not None:
            committed = load_pareto_baseline(args.pareto_baseline)
            if committed is None:
                print(f"no pareto baseline at {args.pareto_baseline}")
            else:
                problems += [
                    f"committed {args.pareto_baseline}: {message}"
                    for message in verify_pareto_payload(committed)
                ]
                problems += compare_pareto_baseline(
                    pareto, committed, tolerance=args.tolerance
                )
        if problems:
            print("\nPARETO FRONT CACHE STOPPED HELPING:")
            for message in problems:
                print(f"  - {message}")
            raise SystemExit(1)
        print("pareto gate passed (cached beats uncached, replay identical)")
    if args.baseline is not None:
        baseline = load_baseline(args.baseline)
        if baseline is None:
            print(f"\nno baseline at {args.baseline}; gate skipped")
            return
        regressions = compare_to_baseline(
            serving, baseline, tolerance=args.tolerance
        )
        if regressions:
            print("\nTHROUGHPUT REGRESSION vs committed baseline:")
            for message in regressions:
                print(f"  - {message}")
            raise SystemExit(1)
        print(
            f"\nthroughput gate passed "
            f"(within {100.0 * args.tolerance:.0f}% of {args.baseline})"
        )


def _cmd_trace_report(args: argparse.Namespace) -> None:
    with open(args.path, "r", encoding="utf-8") as handle:
        report = TraceReport.from_ndjson(handle.read())
    print(report.format_report(critical_paths=args.critical_paths))


def _cmd_all(args: argparse.Namespace) -> None:
    _cmd_table1(args)
    print()
    _cmd_figure3(args)
    print()
    _cmd_figure4(args)
    print()
    _cmd_figure5(args)
    print()
    _cmd_ablations(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of Gu & Nahrstedt, ICDCS 2002.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="distribution algorithm comparison")
    table1.add_argument("--cases", type=int, default=150)
    table1.set_defaults(handler=_cmd_table1)

    figure3 = subparsers.add_parser("figure3", help="end-to-end QoS per event")
    figure3.set_defaults(handler=_cmd_figure3)

    figure4 = subparsers.add_parser("figure4", help="configuration overhead")
    figure4.set_defaults(handler=_cmd_figure4)

    figure5 = subparsers.add_parser("figure5", help="success-rate simulation")
    figure5.add_argument("--requests", type=int, default=5000)
    figure5.add_argument("--horizon", type=float, default=1000.0)
    figure5.set_defaults(handler=_cmd_figure5)

    ablations = subparsers.add_parser("ablations", help="design-choice ablations")
    ablations.add_argument("--cases", type=int, default=60)
    ablations.set_defaults(handler=_cmd_ablations)

    load_sweep = subparsers.add_parser(
        "load-sweep", help="success rate vs offered load (extension)"
    )
    load_sweep.add_argument("--requests", type=int, default=600)
    load_sweep.add_argument("--horizon", type=float, default=120.0)
    load_sweep.set_defaults(handler=_cmd_load_sweep)

    control_sweep = subparsers.add_parser(
        "control-sweep",
        help="predictive control plane: controlled vs reactive (extension)",
    )
    control_sweep.add_argument(
        "--seed",
        type=int,
        default=42,
        help="master seed for every derived stream",
    )
    control_sweep.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: one load and one fault multiplier at a "
        "shorter horizon",
    )
    control_sweep.add_argument(
        "--json",
        default=None,
        help="also write the deterministic control bench artifact",
    )
    control_sweep.set_defaults(handler=_cmd_control_sweep)

    scenario = subparsers.add_parser(
        "scenario",
        help="run one declarative scenario document end to end (extension)",
    )
    scenario.add_argument(
        "name",
        nargs="?",
        default=None,
        help="built-in catalog name, or path to a YAML/JSON scenario spec",
    )
    scenario.add_argument(
        "--list",
        action="store_true",
        help="list the built-in catalog and exit",
    )
    scenario.add_argument(
        "--driver",
        choices=("sim", "thread"),
        default="sim",
        help="sim: deterministic logical time; thread: a real worker "
        "pool, burst-submitted (documents with faults or sessions "
        "require sim)",
    )
    scenario.add_argument(
        "--multiplier",
        type=float,
        nargs="+",
        default=[1.0],
        help="multipliers on every rate the spec declares, its arrivals "
        "and its fault storm (one run per value)",
    )
    scenario.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        help="shard counts to sweep (default: the spec's cluster.shards)",
    )
    scenario.add_argument(
        "--clusters",
        type=int,
        nargs="+",
        default=None,
        help="federated cluster counts to sweep (default: the spec's "
        "federation.clusters, 1 without the section)",
    )
    scenario.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="arrival horizon in (logical) seconds (default: the spec's)",
    )
    scenario.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the spec's seed (default: the one it declares)",
    )
    scenario.add_argument(
        "--controlled",
        action="store_true",
        help="force the predictive QoS controller on (default follows "
        "the spec's control.enabled knob)",
    )
    scenario.add_argument(
        "--batched",
        action="store_true",
        help="drain the services in multi-request chunks",
    )
    scenario.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="sqlite file backing the durable session record store "
        "(default: in-memory, byte-identical to storeless)",
    )
    scenario.add_argument(
        "--crash-restart",
        action="store_true",
        help="crash mid-horizon and recover a successor epoch from the "
        "store, asserting a balanced ledger",
    )
    scenario.add_argument(
        "--crash-at",
        type=float,
        default=0.5,
        help="horizon fraction at which the crash happens "
        "(with --crash-restart)",
    )
    scenario.add_argument(
        "--json",
        default=None,
        help="also write the deterministic scenario result JSON",
    )
    scenario.add_argument(
        "--trace",
        default=None,
        help="also write the span trace as NDJSON",
    )
    scenario.set_defaults(handler=_cmd_scenario)

    bench = subparsers.add_parser(
        "bench",
        help="standing perf benchmarks (serving core + distributor search)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: fewer waves and repeats",
    )
    bench.add_argument(
        "--serving-json",
        default="BENCH_serving.json",
        help="where to write the serving bench artifact",
    )
    bench.add_argument(
        "--distribution-json",
        default="BENCH_distribution.json",
        help="where to write the distribution bench artifact",
    )
    bench.add_argument(
        "--no-distribution",
        action="store_true",
        help="skip the distribution-search bench",
    )
    bench.add_argument(
        "--control-json",
        default="BENCH_control.json",
        help="where to write the control-plane bench artifact",
    )
    bench.add_argument(
        "--no-control",
        action="store_true",
        help="skip the controlled-vs-reactive control-plane bench",
    )
    bench.add_argument(
        "--control-baseline",
        default=None,
        help="committed BENCH_control.json whose claims must still hold",
    )
    bench.add_argument(
        "--pareto-json",
        default="BENCH_pareto.json",
        help="where to write the Pareto front-cache bench artifact",
    )
    bench.add_argument(
        "--no-pareto",
        action="store_true",
        help="skip the cached-vs-uncached Pareto front bench",
    )
    bench.add_argument(
        "--pareto-baseline",
        default=None,
        help="committed BENCH_pareto.json whose claims must still hold",
    )
    bench.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_serving.json to gate requests/sec against",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional throughput drop vs the baseline",
    )
    bench.set_defaults(handler=_cmd_bench)

    trace_report = subparsers.add_parser(
        "trace-report",
        help="per-phase latency breakdown of an NDJSON span trace",
    )
    trace_report.add_argument("path", help="NDJSON trace written by --trace")
    trace_report.add_argument(
        "--critical-paths",
        type=int,
        default=3,
        help="how many longest-root critical paths to print",
    )
    trace_report.set_defaults(handler=_cmd_trace_report)

    everything = subparsers.add_parser("all", help="run every experiment")
    everything.add_argument("--cases", type=int, default=150)
    everything.add_argument("--requests", type=int, default=5000)
    everything.add_argument("--horizon", type=float, default=1000.0)
    everything.set_defaults(handler=_cmd_all)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.handler(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
