"""Command-line interface: run, bench, gen-instance, oracle.

`bench` runs the benchmark protocol over a grid of variants x instances and
`run` runs one cell of it, through one command body. Configuration is layered:
the run settings of `RUN_SETTINGS` default to those of `GeaSolver` and
`run_batch`, the other keys to `CONFIG_DEFAULTS`; a `key = value` config file
overrides them, and command-line flags override both. Every flag has a
config-file key of the same name (dashes become underscores). Unknown config
keys are rejected by name. Exit codes: 0 success, 1 usage or configuration
error, 2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .charts import convergence_chart
from .harness import format_cost, full_benchmark
from .problems import (Knapsack, VehicleRouting, generate_instance,
                       generate_knapsack_instance, knapsack_dp_optimum,
                       load_instance, vrp_dp_optimum, write_instance,
                       SUITE_DIMENSIONS)
from .solver import VARIANTS

# the settings the command line owns; run settings keep the library's defaults
CONFIG_DEFAULTS = {
    "variant": "gea",
    "variants": ",".join(VARIANTS),
    "instance": "f1",
    "instances": ",".join(name for name, *_ in SUITE_DIMENSIONS),
    "out": "",
    "formats": "csv,table,svg",
}

_SUITE = {name: (n, k, seed) for name, n, k, seed in SUITE_DIMENSIONS}


class UsageError(ValueError):
    """Bad flags, bad config, unresolvable instance."""


def _weights(text: str) -> tuple[float, ...]:
    fields = text.split(",")
    if len(fields) != 3:
        raise UsageError(f"weights must be w1,w2,w3, got {text!r}")
    try:
        return tuple(float(w) for w in fields)
    except ValueError:
        raise UsageError(f"weights must be numbers, got {text!r}") from None


# config key -> (parameter of run_batch or GeaSolver, parser of its text, help)
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
_CONFIG_KEYS = (*CONFIG_DEFAULTS, *RUN_SETTINGS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gea", description="gene-engineering optimizer and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, grid, help_text in (("run", False, "one (variant, instance) batch"),
                                  ("bench", True, "variants x instances benchmark grid")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value configuration file")
        if grid:
            p.add_argument("--variants", help="comma-separated algorithm variants")
            p.add_argument("--instances", help="comma-separated instance names/paths")
        else:
            p.add_argument("--variant", help=f"algorithm variant: {', '.join(VARIANTS)}")
            p.add_argument("--instance", help="suite name (f1..f6), file path, or knapsack:<n>:<seed>")
        for key, (_, _, setting_help) in RUN_SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=setting_help)
        p.add_argument("--out", help="output directory (GEA_OUT_DIR as fallback)")
        p.add_argument("--formats", help="outputs to write: csv,table,svg subset")
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
# configuration

def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{line_no}: unknown configuration key: {key}")
        values[key] = value
    return values


def merge_config(args: argparse.Namespace) -> dict[str, str]:
    """defaults < config file < explicit flags; a run setting is a key only
    when the config file or a flag sets it."""
    merged = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def run_params(cfg: dict[str, str]) -> dict:
    """The run settings that `cfg` sets, parsed, as keyword arguments of
    `full_benchmark`; a setting it leaves out keeps the library's default."""
    params = {}
    for key, (param, parse, _) in RUN_SETTINGS.items():
        if key in cfg:
            try:
                params[param] = parse(cfg[key])
            except UsageError:
                raise
            except ValueError:
                raise UsageError(f"{key} must be {_KINDS[parse]}, got {cfg[key]!r}") from None
    return params


def output_dir(cfg: dict[str, str]) -> Path:
    return Path(cfg["out"] or os.environ.get("GEA_OUT_DIR") or "gea-out")


def formats(cfg: dict[str, str]) -> set[str]:
    wanted = set(_split_list(cfg["formats"], "formats"))
    unknown = wanted - {"csv", "table", "svg"}
    if unknown:
        raise UsageError(f"unknown report format: {', '.join(sorted(unknown))}")
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
    if grid and "svg" in wanted:
        for instance in bench.instances:
            files[f"{instance}.svg"] = convergence_chart(
                bench.mean_traces(instance), f"convergence on {instance}")
    return files


# ---------------------------------------------------------------------------
# commands

def cmd_report(args: argparse.Namespace) -> int:
    """`bench` fits a grid of variants x instances, `run` the one cell of
    --variant and --instance; both write the reports and print a summary."""
    cfg = merge_config(args)
    wanted = formats(cfg)
    out_dir = output_dir(cfg)
    if args.grid:
        variants = _split_list(cfg["variants"], "variants")
        tokens = _split_list(cfg["instances"], "instances")
    else:
        variants, tokens = [cfg["variant"]], [cfg["instance"]]
    problems = [resolve_problem(token) for token in tokens]
    bench = full_benchmark(problems, variants=variants, **run_params(cfg))
    paths = write_outputs(out_dir, _report_files(bench, wanted, args.grid))

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
