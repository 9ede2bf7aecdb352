"""Command-line interface: run, bench, gen-instance, oracle.

`bench` runs the benchmark protocol over a grid of variants x instances and
`run` runs one cell of it, through one command body. Each setting is set one
way, by its flag. A run setting of `RUN_SETTINGS` that no flag sets keeps the
default of `GeaSolver` or `run_batch`, and reports go to `gea-out` unless
`--out` names another directory. Exit codes: 0 success, 1 usage error,
2 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .charts import convergence_chart
from .harness import format_cost, full_benchmark
from .problems import (Knapsack, VehicleRouting, generate_instance,
                       generate_knapsack_instance, knapsack_dp_optimum,
                       load_instance, vrp_dp_optimum, write_instance,
                       SUITE_DIMENSIONS)
from .solver import VARIANTS

_SUITE = {name: (n, k, seed) for name, n, k, seed in SUITE_DIMENSIONS}


class UsageError(ValueError):
    """Bad flags or flag values, unresolvable instance."""


def _weights(text: str) -> tuple[float, ...]:
    fields = text.split(",")
    if len(fields) != 3:
        raise UsageError(f"weights must be w1,w2,w3, got {text!r}")
    try:
        return tuple(float(w) for w in fields)
    except ValueError:
        raise UsageError(f"weights must be numbers, got {text!r}") from None


# flag -> (parameter of run_batch or GeaSolver, parser of its text, help)
RUN_SETTINGS = {
    "runs": ("runs", int, "independent runs per cell"),
    "seed": ("base_seed", int, "base seed for run derivation"),
    "iters": ("max_iters", int, "iterations per run"),
    "pop": ("pop_size", int, "population size"),
    "pc": ("crossover_rate", float, "crossover volume in [0,1]"),
    "pm": ("mutation_rate", float, "mutation volume in [0,1]"),
    "elite_fraction": ("elite_fraction", float, "elite share in (0,1]"),
    "threshold_fraction": ("threshold_fraction", float, "mask threshold share of the elite size"),
    "weights": ("scenario_weights", _weights, "scenario weights w1,w2,w3"),
}
_KINDS = {int: "an integer", float: "a number"}
# `run` draws no charts: a chart compares the variants on an instance
_FORMATS = {"run": ("csv", "table"), "bench": ("csv", "table", "svg")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gea", description="gene-engineering optimizer and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, grid, help_text in (("run", False, "one (variant, instance) batch"),
                                  ("bench", True, "variants x instances benchmark grid")):
        p = sub.add_parser(name, help=help_text)
        if grid:
            p.add_argument("--variants", default=",".join(VARIANTS),
                           help="comma-separated algorithm variants")
            p.add_argument("--instances", default=",".join(_SUITE),
                           help="comma-separated instance names/paths")
        else:
            p.add_argument("--variant", default="gea",
                           help=f"algorithm variant: {', '.join(VARIANTS)}")
            p.add_argument("--instance", default="f1",
                           help="suite name (f1..f6), file path, or knapsack:<n>:<seed>")
        for key, (_, _, setting_help) in RUN_SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=setting_help)
        p.add_argument("--out", type=Path, default="gea-out", help="output directory")
        p.add_argument("--formats", default=",".join(_FORMATS[name]),
                       help=f"outputs to write: {','.join(_FORMATS[name])} subset")
        p.set_defaults(func=cmd_report, grid=grid)

    gen_p = sub.add_parser("gen-instance", help="write a seeded routing instance file")
    gen_p.add_argument("n", type=int, help="number of customers")
    gen_p.add_argument("k", type=int, help="number of vehicles")
    gen_p.add_argument("seed", type=int)
    gen_p.add_argument("path", help="output file path")
    gen_p.set_defaults(func=cmd_gen_instance)

    oracle_p = sub.add_parser("oracle", help="print the exact optimum of a small instance")
    oracle_p.add_argument("instance", help="file path, suite name, or knapsack:<n>:<seed>")
    oracle_p.set_defaults(func=cmd_oracle)
    return parser


# ---------------------------------------------------------------------------
# settings

def run_params(args: argparse.Namespace) -> dict:
    """The run settings that flags set, parsed, as keyword arguments of
    `full_benchmark`; a setting that no flag sets keeps the library's default."""
    params = {}
    for key, (param, parse, _) in RUN_SETTINGS.items():
        text = getattr(args, key)
        if text is not None:
            try:
                params[param] = parse(text)
            except UsageError:
                raise
            except ValueError:
                raise UsageError(f"{key} must be {_KINDS[parse]}, got {text!r}") from None
    return params


def formats(args: argparse.Namespace) -> set[str]:
    wanted = set(_split_list(args.formats, "formats"))
    unknown = wanted.difference(_FORMATS[args.command])
    if unknown:
        raise UsageError(f"unknown report format for {args.command}: "
                         f"{', '.join(sorted(unknown))}")
    return wanted


# ---------------------------------------------------------------------------
# instance resolution

def resolve_problem(token: str):
    """Suite name, knapsack:<n>:<seed> pseudo-instance, or instance file path."""
    if token in _SUITE:
        n, k, seed = _SUITE[token]
        return VehicleRouting(generate_instance(n, k, seed, name=token))
    if token.startswith("knapsack:"):
        fields = token.split(":")
        if len(fields) != 3:
            raise UsageError(f"expected knapsack:<n>:<seed>, got {token!r}")
        try:
            n, seed = int(fields[1]), int(fields[2])
        except ValueError:
            raise UsageError(f"expected knapsack:<n>:<seed>, got {token!r}") from None
        return Knapsack(generate_knapsack_instance(n, seed),
                        name=f"knapsack-{n}-s{seed}")
    path = Path(token)
    if not path.exists():
        raise UsageError(f"unknown instance {token!r}: not a suite name and no such file")
    try:
        return VehicleRouting(load_instance(path))
    except ValueError as err:
        raise UsageError(f"cannot parse instance {token!r}: {err}") from None


def _split_list(text: str, what: str) -> list[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise UsageError(f"no {what} given")
    return items


# ---------------------------------------------------------------------------
# output writing

def write_outputs(out_dir: Path, files: dict[str, str]) -> list[Path]:
    """Write all reports; on failure remove whatever was already written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, content in files.items():
            path = out_dir / name
            path.write_text(content, encoding="utf-8")
            written.append(path)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def _report_files(bench, wanted: set[str], grid: bool) -> dict[str, str]:
    # a grid (bench) report adds intervals.csv and a chart per instance
    files: dict[str, str] = {}
    if "csv" in wanted:
        files["results.csv"] = bench.results_csv()
        files["convergence.csv"] = bench.convergence_csv()
        if grid:
            files["intervals.csv"] = bench.intervals_csv()
    if "table" in wanted:
        files["table.txt"] = bench.table_text()
    if "svg" in wanted:
        for instance in bench.instances:
            files[f"{instance}.svg"] = convergence_chart(
                bench.mean_traces(instance), f"convergence on {instance}")
    return files


# ---------------------------------------------------------------------------
# commands

def cmd_report(args: argparse.Namespace) -> int:
    """`bench` fits a grid of variants x instances, `run` the one cell of
    --variant and --instance; both write the reports and print a summary."""
    wanted = formats(args)
    if args.grid:
        variants = _split_list(args.variants, "variants")
        tokens = _split_list(args.instances, "instances")
    else:
        variants, tokens = [args.variant], [args.instance]
    problems = [resolve_problem(token) for token in tokens]
    bench = full_benchmark(problems, variants=variants, **run_params(args))
    paths = write_outputs(args.out, _report_files(bench, wanted, args.grid))

    if args.grid:
        print(bench.table_text(), end="")
    else:
        s = bench.results[0].stats()
        print(f"{variants[0]} on {problems[0].name}: best={format_cost(s.best)} "
              f"worst={format_cost(s.worst)} mean={format_cost(s.mean)} std={format_cost(s.std)}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_gen_instance(args: argparse.Namespace) -> int:
    if args.k > args.n:
        raise UsageError(f"vehicles ({args.k}) must not exceed customers ({args.n})")
    instance = generate_instance(args.n, args.k, args.seed)
    write_instance(instance, args.path)
    print(f"wrote {args.path}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    problem = resolve_problem(args.instance)
    if isinstance(problem, Knapsack):
        # a cost, as `run` and `bench` report it: total value - optimum value
        cost = sum(problem.instance.values) - knapsack_dp_optimum(problem.instance)
    else:
        cost, _ = vrp_dp_optimum(problem.instance)
    print(f"{cost:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as err:  # UsageError included
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
