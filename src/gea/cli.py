"""Command-line interface: run, bench, gen-instance, oracle.

Configuration is layered: built-in defaults (the benchmark protocol settings),
then a `key = value` config file, then command-line flags. Every flag has a
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
from .harness import Benchmark, format_cost, full_benchmark, run_batch
from .problems import (Knapsack, VehicleRouting, generate_instance,
                       generate_knapsack_instance, knapsack_dp_optimum,
                       load_instance, vrp_brute_force, write_instance,
                       SUITE_DIMENSIONS)
from .solver import VARIANTS

CONFIG_DEFAULTS = {
    "variant": "gea",
    "variants": ",".join(VARIANTS),
    "instance": "f1",
    "instances": ",".join(name for name, *_ in SUITE_DIMENSIONS),
    "runs": "10",
    "seed": "0",
    "iters": "1000",
    "pop": "100",
    "pc": "0.8",
    "pm": "0.1",
    "elite_fraction": "0.2",
    "threshold_fraction": "0.5",
    "weights": "0.5,0.5,0.2",
    "out": "",
    "formats": "csv,table,svg",
}

_SUITE = {name: (n, k, seed) for name, n, k, seed in SUITE_DIMENSIONS}


class UsageError(ValueError):
    """Bad flags, bad config, unresolvable instance."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gea", description="gene-engineering optimizer and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, many: bool) -> None:
        p.add_argument("--config", help="key = value configuration file")
        if many:
            p.add_argument("--variants", help="comma-separated algorithm variants")
            p.add_argument("--instances", help="comma-separated instance names/paths")
        else:
            p.add_argument("--variant", help=f"algorithm variant: {', '.join(VARIANTS)}")
            p.add_argument("--instance", help="suite name (f1..f6), file path, or knapsack:<n>:<seed>")
        p.add_argument("--runs", help="independent runs per cell")
        p.add_argument("--seed", help="base seed for run derivation")
        p.add_argument("--iters", help="iterations per run")
        p.add_argument("--pop", help="population size")
        p.add_argument("--pc", help="crossover volume in [0,1]")
        p.add_argument("--pm", help="mutation volume in [0,1]")
        p.add_argument("--elite-fraction", dest="elite_fraction", help="elite share in (0,1]")
        p.add_argument("--threshold-fraction", dest="threshold_fraction",
                       help="mask threshold share of the elite size")
        p.add_argument("--weights", help="scenario weights w1,w2,w3")
        p.add_argument("--out", help="output directory (GEA_OUT_DIR as fallback)")
        p.add_argument("--formats", help="outputs to write: csv,table,svg subset")

    run_p = sub.add_parser("run", help="one (variant, instance) batch")
    add_common(run_p, many=False)
    run_p.set_defaults(func=cmd_run)

    bench_p = sub.add_parser("bench", help="variants x instances benchmark grid")
    add_common(bench_p, many=True)
    bench_p.set_defaults(func=cmd_bench)

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
        if key not in CONFIG_DEFAULTS:
            raise UsageError(f"{path}:{line_no}: unknown configuration key: {key}")
        values[key] = value
    return values


def merge_config(args: argparse.Namespace) -> dict[str, str]:
    """defaults < config file < explicit flags."""
    merged = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    for key in CONFIG_DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _to_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise UsageError(f"{key} must be an integer, got {cfg[key]!r}") from None


def _to_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise UsageError(f"{key} must be a number, got {cfg[key]!r}") from None


def solver_params(cfg: dict[str, str]) -> dict:
    weights_text = cfg["weights"].split(",")
    if len(weights_text) != 3:
        raise UsageError(f"weights must be w1,w2,w3, got {cfg['weights']!r}")
    try:
        weights = tuple(float(w) for w in weights_text)
    except ValueError:
        raise UsageError(f"weights must be numbers, got {cfg['weights']!r}") from None
    return {
        "pop_size": _to_int(cfg, "pop"),
        "max_iters": _to_int(cfg, "iters"),
        "crossover_rate": _to_float(cfg, "pc"),
        "mutation_rate": _to_float(cfg, "pm"),
        "elite_fraction": _to_float(cfg, "elite_fraction"),
        "threshold_fraction": _to_float(cfg, "threshold_fraction"),
        "scenario_weights": weights,
    }


def output_dir(cfg: dict[str, str]) -> Path:
    return Path(cfg["out"] or os.environ.get("GEA_OUT_DIR") or "gea-out")


def formats(cfg: dict[str, str]) -> set[str]:
    wanted = {f.strip() for f in cfg["formats"].split(",") if f.strip()}
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


def _report_files(bench: Benchmark, wanted: set[str], with_intervals: bool,
                  with_svg: bool) -> dict[str, str]:
    files: dict[str, str] = {}
    if "csv" in wanted:
        files["results.csv"] = bench.results_csv()
        files["convergence.csv"] = bench.convergence_csv()
        if with_intervals:
            files["intervals.csv"] = bench.intervals_csv()
    if "table" in wanted:
        files["table.txt"] = bench.table_text()
    if with_svg and "svg" in wanted:
        for instance in bench.instances:
            files[f"{instance}.svg"] = convergence_chart(
                bench.mean_traces(instance), f"convergence on {instance}")
    return files


# ---------------------------------------------------------------------------
# commands

def cmd_run(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    wanted = formats(cfg)
    out_dir = output_dir(cfg)
    variant = cfg["variant"]
    if variant not in VARIANTS:
        raise UsageError(f"variant must be one of {VARIANTS}, got {variant!r}")
    problem = resolve_problem(cfg["instance"])
    batch = run_batch(problem, variant=variant, runs=_to_int(cfg, "runs"),
                      base_seed=_to_int(cfg, "seed"), **solver_params(cfg))
    bench = Benchmark((variant,), (problem.name,), (batch,))
    files = _report_files(bench, wanted, with_intervals=False, with_svg=False)
    paths = write_outputs(out_dir, files)

    s = batch.stats()
    print(f"{variant} on {problem.name}: best={format_cost(s.best)} "
          f"worst={format_cost(s.worst)} mean={format_cost(s.mean)} std={format_cost(s.std)}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    wanted = formats(cfg)
    out_dir = output_dir(cfg)
    variants = _split_list(cfg["variants"], "variants")
    for variant in variants:
        if variant not in VARIANTS:
            raise UsageError(f"variant must be one of {VARIANTS}, got {variant!r}")
    problems = [resolve_problem(token) for token in _split_list(cfg["instances"], "instances")]
    bench = full_benchmark(problems, variants=variants, runs=_to_int(cfg, "runs"),
                           base_seed=_to_int(cfg, "seed"), **solver_params(cfg))
    files = _report_files(bench, wanted, with_intervals=True, with_svg=True)
    paths = write_outputs(out_dir, files)

    print(bench.table_text(), end="")
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
        cost, _ = vrp_brute_force(problem.instance)
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
