"""Multi-run experiment protocol: batches, summary statistics, report tables.

A batch is `runs` independent solver runs of one (algorithm, instance) cell,
each on its own derived stream. The full benchmark crosses algorithm variants
with instances and renders the three CSV reports plus a plain-text grid of
best / worst / mean / standard deviation per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .genome import _check_int
from .problems.base import _check_name
from .rng import derive_run_seed
from .solver import VARIANT_IDS, VARIANTS, GeaSolver, _check_variant, _problem_domain


def format_cost(value: float) -> str:
    """Report costs at 4 decimal places; avoids '-0.0000' artifacts."""
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


@dataclass(frozen=True)
class StatsRow:
    best: float
    worst: float
    mean: float
    std: float


@dataclass(frozen=True)
class IntervalRow:
    algorithm: str
    center: float
    half_width: float


@dataclass(frozen=True)
class BatchResult:
    algorithm: str
    instance: str
    run_costs: np.ndarray   # (runs,) final best cost per run
    traces: np.ndarray      # (runs, iters) per-iteration best cost

    @property
    def runs(self) -> int:
        return self.run_costs.shape[0]

    def stats(self) -> StatsRow:
        return compute_stats(self.run_costs)


def compute_stats(costs: Sequence[float]) -> StatsRow:
    """Best/worst/mean and sample standard deviation (0 for a single run)."""
    arr = np.asarray(costs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot compute statistics of an empty cost list")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return StatsRow(float(arr.min()), float(arr.max()), float(arr.mean()), std)


def run_batch(problem, variant: str = "gea", runs: int = 10, base_seed: int = 0,
              **solver_params) -> BatchResult:
    """`runs` independent runs; run r of a variant always sees the same stream."""
    _check_int("runs", runs, 1)
    _check_variant(variant)
    _check_int("base_seed", base_seed, 0)
    costs = np.empty(runs, dtype=np.float64)
    traces = []
    for run_index in range(runs):
        seed = derive_run_seed(base_seed, VARIANT_IDS[variant], run_index)
        solver = GeaSolver(variant=variant, seed=seed, **solver_params).fit(problem)
        costs[run_index] = solver.best_cost_
        traces.append(solver.trace_)
    return BatchResult(variant, problem.name, costs, np.stack(traces))


def confidence_interval(values: Sequence[float]) -> tuple[float, float]:
    """Mean and 1.96 * sample std / sqrt(n) half-width (0 below two values)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot build an interval from no values")
    if arr.size == 1 or np.all(arr == arr[0]):
        return float(arr[0]), 0.0
    return float(arr.mean()), float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def interval_data(results: Sequence[BatchResult]) -> list[IntervalRow]:
    """Per-algorithm 95% interval of the per-instance spread ratios Std/Mean."""
    if not results:
        raise ValueError("no batch results given")
    run_counts = {batch.runs for batch in results}
    if len(run_counts) > 1:
        raise ValueError(f"batches disagree on run count: {sorted(run_counts)}")

    grouped: dict[str, list[float]] = {}
    for batch in results:
        stats = batch.stats()
        normalized = stats.std / stats.mean if stats.mean != 0 else 0.0
        grouped.setdefault(batch.algorithm, []).append(normalized)

    rows = []
    for algorithm, values in grouped.items():
        center, half_width = confidence_interval(values)
        rows.append(IntervalRow(algorithm, center, half_width))
    return rows


@dataclass(frozen=True)
class Benchmark:
    variants: tuple[str, ...]
    instances: tuple[str, ...]
    results: tuple[BatchResult, ...]  # variant-major, instance-minor

    def batch(self, variant: str, instance: str) -> BatchResult:
        for result in self.results:
            if result.algorithm == variant and result.instance == instance:
                return result
        raise KeyError(f"no batch for ({variant!r}, {instance!r})")

    def results_csv(self) -> str:
        lines = ["algorithm,instance,best,worst,mean,std"]
        for result in self.results:
            s = result.stats()
            lines.append(f"{result.algorithm},{result.instance},"
                         f"{format_cost(s.best)},{format_cost(s.worst)},"
                         f"{format_cost(s.mean)},{format_cost(s.std)}")
        return "\n".join(lines) + "\n"

    def convergence_csv(self) -> str:
        """One row per (cell, run, iteration). Each trace becomes one block of
        text and the blocks are joined once, so the peak is the blocks plus
        the joined text: about twice the file."""
        blocks = ["algorithm,instance,run,iteration,best_cost\n"]
        for result in self.results:
            for run_index, trace in enumerate(result.traces):
                prefix = f"{result.algorithm},{result.instance},{run_index},"
                blocks.append("".join([f"{prefix}{i},{cost:.6f}\n"
                                       for i, cost in enumerate(trace.tolist())]))
        return "".join(blocks)

    def intervals_csv(self) -> str:
        lines = ["algorithm,center,half_width"]
        for row in interval_data(list(self.results)):
            lines.append(f"{row.algorithm},{row.center:.6f},{row.half_width:.6f}")
        return "\n".join(lines) + "\n"

    def table_text(self) -> str:
        """Grid of best/worst/mean/std rows per variant, one column per instance."""
        label_width = 10
        cell_width = max(12, *(len(name) + 2 for name in self.instances))
        header = " " * (label_width + 7) + "".join(
            f"{name:>{cell_width}}" for name in self.instances)
        lines = [header]
        for variant in self.variants:
            stats = [self.batch(variant, inst).stats() for inst in self.instances]
            for stat_name in ("best", "worst", "mean", "std"):
                label = variant if stat_name == "best" else ""
                cells = "".join(
                    f"{format_cost(getattr(s, stat_name)):>{cell_width}}" for s in stats)
                lines.append(f"{label:<{label_width}} {stat_name:<6}{cells}")
        return "\n".join(lines) + "\n"

    def mean_traces(self, instance: str) -> dict[str, np.ndarray]:
        """Per-variant mean-over-runs convergence trace for one instance."""
        return {variant: self.batch(variant, instance).traces.mean(axis=0)
                for variant in self.variants}


def full_benchmark(problems: Sequence, variants: Sequence[str] = VARIANTS,
                   runs: int = 10, base_seed: int = 0, **solver_params) -> Benchmark:
    # a string iterates as characters, so it is no sequence of names here
    for label, value in (("problems", problems), ("variants", variants)):
        if isinstance(value, (str, bytes)):
            raise ValueError(f"{label} must be a sequence, not a string: got {value!r}")
    if not problems or not variants:
        raise ValueError("need at least one problem and one variant")
    # every problem and variant is checked before the first fit, not when its
    # batch comes up; a name is a report file's stem and a CSV field
    for problem in problems:
        _problem_domain(problem)
        _check_name(problem.name)
    for variant in variants:
        _check_variant(variant)
    # a report cell is keyed by (variant, instance name), so both must be unique
    for label, keys in (("instance names", [p.name for p in problems]),
                        ("variants", list(variants))):
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        if repeated:
            raise ValueError(f"duplicate {label}: {', '.join(repeated)}")
    results = tuple(
        run_batch(problem, variant=variant, runs=runs, base_seed=base_seed,
                  **solver_params)
        for variant in variants
        for problem in problems
    )
    return Benchmark(tuple(variants), tuple(p.name for p in problems), results)
