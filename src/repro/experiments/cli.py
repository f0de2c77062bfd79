"""``mems-repro`` command-line entry point.

Usage::

    mems-repro list                 # enumerate reproducible artifacts
    mems-repro run figure6a         # render one artifact to stdout
    mems-repro run all              # render everything (incl. extensions)
    mems-repro run figure8 --csv out.csv   # also export the data series
    mems-repro experiments figure6a figure9a --jobs 4
                                    # selected artifacts, sweeps fanned
                                    # out over 4 worker processes
    mems-repro experiments --all --jobs 4 --csv out.csv
    mems-repro design --streams 1000 --bitrate 100 --budget 150
                                    # size a server across configurations
    mems-repro runtime list         # enumerate online-runtime scenarios
    mems-repro runtime device-failure --seed 7 --json metrics.json
                                    # run a scenario, print the dashboard
    mems-repro runtime all --jobs 4 # the whole scenario suite in parallel
    mems-repro runtime flash_crowd --emit-config flash.json
                                    # dump a scenario as declarative JSON
    mems-repro runtime --config flash.json
                                    # run a declarative config through the
                                    # service control plane
    mems-repro bench --preset small --out bench_out
                                    # record BENCH_<name>.json timings
    mems-repro bench --replay bench_out --compare benchmarks/baselines
                                    # regression gate (exit 1 if slower)
    mems-repro lint src             # repo-specific static analysis
    mems-repro lint --json --rule no-bare-assert src tests
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.experiments.registry import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="mems-repro",
        description=("Reproduce the tables and figures of 'MEMS-based Disk "
                     "Buffer for Streaming Media Servers' (ICDE 2003)"))
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_cmd = sub.add_parser("run", help="run one experiment (or 'all')")
    run_cmd.add_argument("experiment",
                         help="experiment id (see 'list') or 'all'")
    run_cmd.add_argument("--csv", metavar="PATH",
                         help="also write the data series as CSV")
    run_cmd.add_argument("--width", type=int, default=76,
                         help="chart width in characters")
    run_cmd.add_argument("--height", type=int, default=20,
                         help="chart height in characters")
    exp_cmd = sub.add_parser(
        "experiments",
        help="run selected experiments, optionally in parallel (--jobs)")
    exp_cmd.add_argument("ids", nargs="*", metavar="ID",
                         help="experiment ids (see 'list')")
    exp_cmd.add_argument("--all", action="store_true",
                         help="run every experiment (incl. extensions)")
    exp_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the sweeps "
                              "(default 1 = serial; results identical)")
    exp_cmd.add_argument("--batch", action="store_true",
                         help="route sweeps through the vectorized batch "
                              "planner (results identical; composes with "
                              "--jobs)")
    exp_cmd.add_argument("--csv", metavar="PATH",
                         help="also write the data series as CSV")
    exp_cmd.add_argument("--width", type=int, default=76,
                         help="chart width in characters")
    exp_cmd.add_argument("--height", type=int, default=20,
                         help="chart height in characters")
    bench_cmd = sub.add_parser(
        "bench", help="run the timed benchmark workloads / regression gate")
    bench_cmd.add_argument("--preset", default="small",
                           choices=("tiny", "small", "large", "full"),
                           help="workload scale (default small; 'large' "
                                "is the million-session preset)")
    bench_cmd.add_argument("--workload", action="append", default=None,
                           metavar="NAME",
                           help="run only this workload (repeatable)")
    bench_cmd.add_argument("--repeats", type=int, default=1, metavar="N",
                           help="passes per workload; gated metrics keep "
                                "the best (default 1)")
    bench_cmd.add_argument("--out", metavar="DIR", default=None,
                           help="write BENCH_<name>.json records here")
    bench_cmd.add_argument("--replay", metavar="DIR", default=None,
                           help="skip running: load recorded BENCH_*.json "
                                "from DIR as the current results")
    bench_cmd.add_argument("--compare", metavar="BASELINE", default=None,
                           help="compare against a baseline dir (or one "
                                "BENCH_*.json); exit 1 on regression")
    bench_cmd.add_argument("--tolerance", type=float, default=10.0,
                           metavar="PCT",
                           help="allowed regression percentage "
                                "(default 10)")
    design_cmd = sub.add_parser(
        "design", help="size a server: compare plain / buffer / cache")
    design_cmd.add_argument("--streams", type=int, required=True,
                            help="concurrent streams to support")
    design_cmd.add_argument("--bitrate", type=float, required=True,
                            help="average stream bit-rate in KB/s")
    design_cmd.add_argument("--budget", type=float, default=None,
                            help="total buffering budget in dollars "
                                 "(omit to report requirements only)")
    design_cmd.add_argument("--popularity", default="5:95",
                            help="X:Y popularity for the cache option "
                                 "(default 5:95)")
    design_cmd.add_argument("--devices", type=int, default=2,
                            help="MEMS devices in the bank (default 2)")
    runtime_cmd = sub.add_parser(
        "runtime", help="run an online-server scenario (or 'list')")
    runtime_cmd.add_argument("scenario", nargs="?", default=None,
                             help="scenario name (see 'runtime list')")
    runtime_cmd.add_argument("--seed", type=int, default=None,
                             help="random seed (default 0, or the "
                                  "--config file's own seed)")
    runtime_cmd.add_argument("--horizon", type=float, default=None,
                             help="simulated seconds (scenario default)")
    runtime_cmd.add_argument("--json", metavar="PATH", default=None,
                             help="write the full result (events, "
                                  "migrations, metrics) as JSON")
    runtime_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="worker processes for 'all' "
                                  "(default 1 = serial)")
    runtime_cmd.add_argument("--config", metavar="PATH", default=None,
                             help="run a declarative RuntimeConfig JSON "
                                  "file through the service control plane "
                                  "(instead of a named scenario)")
    runtime_cmd.add_argument("--emit-config", metavar="PATH", default=None,
                             help="with a scenario name: write its "
                                  "declarative RuntimeConfig JSON to PATH "
                                  "('-' for stdout) and exit")
    lint_cmd = sub.add_parser(
        "lint", help="run the repo-specific static-analysis pass")
    lint_cmd.add_argument("paths", nargs="*", default=["src"],
                          help="files or directories to lint "
                               "(default: src)")
    lint_cmd.add_argument("--json", action="store_true",
                          help="emit the machine-readable JSON report")
    lint_cmd.add_argument("--rule", action="append", default=None,
                          metavar="RULE",
                          help="run only this rule (repeatable; "
                               "see --list-rules)")
    lint_cmd.add_argument("--list-rules", action="store_true",
                          help="list the registered rules and exit")
    lint_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="parse files across N worker processes "
                               "(findings are byte-identical to serial)")
    lint_cmd.add_argument("--changed", action="store_true",
                          help="lint only the .py files git status "
                               "--porcelain reports as modified "
                               "(replaces the path list)")
    lint_cmd.add_argument("--sarif", metavar="PATH", default=None,
                          help="also write a SARIF 2.1.0 report to PATH")
    lint_cmd.add_argument("--no-cache", action="store_true",
                          help="ignore and do not write the incremental "
                               "result cache (.lint-cache.json)")
    lint_cmd.add_argument("--baseline", metavar="PATH", default=None,
                          help="ratchet baseline file to waive accepted "
                               "findings (default: the pyproject "
                               "'baseline' setting, if the file exists)")
    lint_cmd.add_argument("--write-baseline", metavar="PATH", default=None,
                          help="record the current findings as the "
                               "ratchet baseline at PATH and exit 0")
    return parser


def _run_lint(args: argparse.Namespace) -> int:
    """The ``lint`` subcommand (exit codes: 0 clean / 1 findings /
    2 usage error)."""
    from repro.analysis.cli import run_lint

    return run_lint(args.paths, rules=args.rule, json_output=args.json,
                    list_rules=args.list_rules, jobs=args.jobs,
                    changed=args.changed, sarif_path=args.sarif,
                    no_cache=args.no_cache, baseline=args.baseline,
                    write_baseline=args.write_baseline)


def _run_runtime(args: argparse.Namespace) -> int:
    """The ``runtime`` subcommand: run a scenario, print the dashboard."""
    from repro.errors import ConfigurationError
    from repro.service.scenarios import (
        SERVICE_SCENARIOS,
        build_service_scenario,
        run_scenario,
        run_scenario_batch,
    )

    if args.config is not None:
        from repro.service.config import RuntimeConfig
        from repro.service.traffic import run_service

        if args.scenario is not None or args.emit_config is not None:
            raise ConfigurationError(
                "--config replaces the scenario name (and cannot be "
                "combined with --emit-config)")
        with open(args.config, encoding="utf-8") as handle:
            config = RuntimeConfig.from_json(handle.read())
        if args.horizon is not None:
            if args.horizon <= 0:
                raise ConfigurationError(
                    f"horizon must be > 0, got {args.horizon!r}")
            config = config.replace(horizon=args.horizon)
        if args.seed is not None and args.seed != config.seed:
            config = config.replace(seed=args.seed)
        result = run_service(config)
        print(result.dashboard())
        print()
        print(result.summary())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(result.to_json(indent=2))
            print(f"wrote {args.json}", file=sys.stderr)
        return 0
    if args.scenario is None:
        raise ConfigurationError(
            "runtime needs a scenario name, 'list', 'all', or --config "
            "(see 'runtime list')")
    seed = 0 if args.seed is None else args.seed
    if args.emit_config is not None:
        config = build_service_scenario(args.scenario, seed=seed,
                                        horizon=args.horizon)
        text = config.to_json(indent=2)
        if args.emit_config == "-":
            print(text)
        else:
            with open(args.emit_config, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.emit_config}", file=sys.stderr)
        return 0
    if args.scenario == "list":
        for name, factory in SERVICE_SCENARIOS.items():
            doc = (factory.__doc__ or "").strip().splitlines()[0]
            print(f"{name:>20}  {doc}")
        return 0
    if args.scenario == "all":
        results = run_scenario_batch(seed=seed, horizon=args.horizon,
                                     jobs=args.jobs)
        for name, result in results.items():
            print(f"=== {name} ===")
            print(result.dashboard())
            print()
            print(result.summary())
            print()
        if args.json:
            import json as _json

            payload = {name: _json.loads(result.to_json())
                       for name, result in results.items()}
            with open(args.json, "w", encoding="utf-8") as handle:
                _json.dump(payload, handle, indent=2)
            print(f"wrote {args.json}", file=sys.stderr)
        return 0
    result = run_scenario(args.scenario, seed=seed,
                          horizon=args.horizon)
    print(result.dashboard())
    print()
    print(result.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json(indent=2))
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    """The ``experiments`` subcommand: selected ids, optionally parallel."""
    from repro.errors import ConfigurationError
    from repro.experiments.registry import (
        run_all,
        run_experiment,
        run_selected,
    )

    if args.all:
        if args.ids:
            raise ConfigurationError(
                "pass experiment ids or --all, not both")
        results = run_all(jobs=args.jobs, batch=args.batch)
    elif not args.ids:
        raise ConfigurationError(
            "no experiments selected; pass ids (see 'list') or --all")
    elif len(args.ids) == 1:
        # A single experiment parallelises *inside* its sweep loops.
        experiment_id = args.ids[0]
        results = {experiment_id: run_experiment(experiment_id,
                                                 jobs=args.jobs,
                                                 batch=args.batch)}
    else:
        results = run_selected(list(args.ids), jobs=args.jobs,
                               batch=args.batch)
    for experiment_id, result in results.items():
        print(result.render(width=args.width, height=args.height))
        print()
        if args.csv:
            suffix = "" if len(results) == 1 else f".{experiment_id}"
            path = result.write_csv(f"{args.csv}{suffix}")
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """The ``bench`` subcommand: record timings and/or gate a regression."""
    from repro.perf.bench import (
        METRIC_DIRECTIONS,
        compare_records,
        load_records,
        run_workloads,
        write_records,
    )

    if args.replay is not None:
        records_by_name = load_records(args.replay)
        if args.workload:
            records_by_name = {name: record
                               for name, record in records_by_name.items()
                               if name in set(args.workload)}
        records = list(records_by_name.values())
        print(f"replaying {len(records)} recorded workload(s) from "
              f"{args.replay}")
    else:
        records = run_workloads(args.workload, preset=args.preset,
                                repeats=args.repeats)
        records_by_name = {record.name: record for record in records}
    for record in records:
        gated = {name: value for name, value in record.metrics.items()
                 if name in METRIC_DIRECTIONS}
        info = {name: value for name, value in record.metrics.items()
                if name not in METRIC_DIRECTIONS}
        parts = [f"{name}={value:.6g}" for name, value in gated.items()]
        parts += [f"{name}={value:.6g}*" for name, value in info.items()]
        print(f"{record.name:>18} [{record.preset}]  {'  '.join(parts)}")
    if records and args.replay is None and args.out:
        for path in write_records(records, args.out):
            print(f"wrote {path}", file=sys.stderr)
    if args.compare is None:
        return 0
    baseline = load_records(args.compare)
    comparisons, regressions = compare_records(
        records_by_name, baseline, args.tolerance)
    print()
    print(f"comparing against {args.compare} "
          f"(tolerance {args.tolerance:g}%):")
    for comparison in comparisons:
        flag = "REGRESSION" if comparison in regressions else "ok"
        print(f"  [{flag:>10}] {comparison.describe()}")
    if regressions:
        print(f"{len(regressions)} regression(s) beyond "
              f"{args.tolerance:g}%", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


def _run_design(args: argparse.Namespace) -> int:
    """The ``design`` subcommand: requirement and capacity report."""
    from repro.core.buffer_model import design_mems_buffer
    from repro.core.cache_model import CachePolicy, design_mems_cache
    from repro.core.parameters import SystemParameters
    from repro.core.popularity import BimodalPopularity
    from repro.core.theorems import min_buffer_disk_dram
    from repro.devices.catalog import DRAM_2007
    from repro.units import KB, bytes_to_human

    bit_rate = args.bitrate * KB
    params = SystemParameters.table3_default(
        n_streams=args.streams, bit_rate=bit_rate, k=args.devices)
    popularity = BimodalPopularity.parse(args.popularity)
    print(f"Sizing for {args.streams} streams at {args.bitrate:g} KB/s "
          f"({params.disk_utilization:.0%} of disk bandwidth), "
          f"k={args.devices} G3 MEMS devices available")
    print()
    rows: list[tuple[str, float, float]] = []  # label, dram, mems $
    rows.append(("plain disk-to-DRAM",
                 args.streams * min_buffer_disk_dram(params), 0.0))
    buffer_design = design_mems_buffer(params, quantise=False)
    rows.append(("MEMS buffer", buffer_design.total_dram,
                 params.mems_bank_cost))
    for policy in (CachePolicy.REPLICATED, CachePolicy.STRIPED):
        cache_design = design_mems_cache(params, policy, popularity)
        rows.append((f"MEMS cache ({policy.value})", cache_design.total_dram,
                     params.mems_bank_cost))
    print(f"{'configuration':>26} | {'DRAM needed':>12} | "
          f"{'MEMS cost':>9} | {'total cost':>10}")
    print("-" * 68)
    for label, dram, mems_cost in rows:
        total = dram * DRAM_2007.cost_per_byte + mems_cost
        print(f"{label:>26} | {bytes_to_human(dram):>12} | "
              f"${mems_cost:>8.2f} | ${total:>9.2f}")
    if args.budget is not None:
        from repro.planner.throughput import streams_supported

        print()
        print(f"Throughput at a ${args.budget:g} total budget:")
        base = params.replace(n_streams=1)
        capacities = {
            "plain disk-to-DRAM": streams_supported(
                base.replace(k=1),
                args.budget / DRAM_2007.cost_per_byte),
        }
        remaining = args.budget - params.mems_bank_cost
        if remaining > 0:
            dram_budget = remaining / DRAM_2007.cost_per_byte
            capacities["MEMS buffer"] = streams_supported(
                base, dram_budget, configuration="buffer")
            capacities["MEMS cache (replicated)"] = streams_supported(
                base, dram_budget, configuration="cache",
                policy=CachePolicy.REPLICATED, popularity=popularity)
            capacities["MEMS cache (striped)"] = streams_supported(
                base, dram_budget, configuration="cache",
                policy=CachePolicy.STRIPED, popularity=popularity)
        for label, capacity in capacities.items():
            marker = " <- requested" if capacity >= args.streams else ""
            print(f"  {label:>26}: {capacity} streams{marker}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        # Lint has its own exit-code contract (usage errors exit 2,
        # findings exit 1); it must not fold into the ReproError -> 1
        # mapping below.
        return _run_lint(args)
    try:
        if args.command == "list":
            for experiment_id in EXPERIMENTS:
                print(experiment_id)
            return 0
        if args.command == "design":
            return _run_design(args)
        if args.command == "runtime":
            return _run_runtime(args)
        if args.command == "experiments":
            return _run_experiments(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.experiment == "all":
            ids = list(EXPERIMENTS)
        else:
            ids = [args.experiment]
        for experiment_id in ids:
            result = run_experiment(experiment_id)
            print(result.render(width=args.width, height=args.height))
            print()
            if args.csv:
                suffix = "" if len(ids) == 1 else f".{experiment_id}"
                path = result.write_csv(f"{args.csv}{suffix}")
                print(f"wrote {path}", file=sys.stderr)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
