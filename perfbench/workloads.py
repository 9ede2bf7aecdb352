"""The benchmark's workloads: seeded inputs, solver settings and one round of fits.

A round is one `full_benchmark` call over the workload's variants x instances x
runs, followed by the report renderers. Every round of a run repeats the same
fits with the same seeds, so rounds are interchangeable units of work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gea
import gea.charts
import gea.harness
import gea.solver
from gea.problems import SUITE_DIMENSIONS

# the paper's protocol settings; iterations are set per workload
PROTOCOL = {"pop_size": 100, "crossover_rate": 0.8, "mutation_rate": 0.1,
            "scenario_weights": (0.5, 0.5, 0.2)}

# (customers, vehicles) of the routing-large instances
LARGE_ROUTING = ((150, 8), (160, 8), (170, 9), (180, 9), (190, 10), (200, 10))
# item counts of the knapsack-long instances
LONG_KNAPSACK = (250, 267, 283, 300)


def protocol_problems(seed: int) -> list:
    """Suite instances f1..f6, resolved the way `gea bench` resolves them; the
    seed only drives the solver runs."""
    return [gea.VehicleRouting(gea.generate_instance(n, k, inst_seed, name=name))
            for name, n, k, inst_seed in SUITE_DIMENSIONS]


def large_routing_problems(seed: int) -> list:
    """Customers uniform on [0, 100]^2 around a depot at (50, 50)."""
    rng = np.random.default_rng([seed, 1])
    problems = []
    for n, k in LARGE_ROUTING:
        coords = rng.uniform(0.0, 100.0, size=(n, 2))
        instance = gea.VrpInstance(name=f"vrp{n}", n_vehicles=k, depot=(50.0, 50.0),
                                   customers=tuple(map(tuple, coords.tolist())))
        problems.append(gea.VehicleRouting(instance))
    return problems


def long_knapsack_problems(seed: int) -> list:
    """Integer weights 1..30 and values 1..50; capacity 55% of the total weight."""
    rng = np.random.default_rng([seed, 2])
    problems = []
    for n in LONG_KNAPSACK:
        weights = rng.integers(1, 31, size=n)
        values = rng.integers(1, 51, size=n)
        capacity = math.ceil(0.55 * int(weights.sum()))
        instance = gea.KnapsackInstance(tuple(map(float, weights)), tuple(map(float, values)),
                                        float(capacity))
        problems.append(gea.Knapsack(instance, name=f"ks{n}"))
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple[str, ...]
    runs: int                         # independent runs per (variant, instance) cell
    max_iters: int
    build: Callable[[int], list]      # seed -> problems
    all_reports: bool                 # convergence, intervals and charts too

    def solver_params(self) -> dict:
        return dict(PROTOCOL, max_iters=self.max_iters)

    def fits_per_round(self, n_problems: int) -> int:
        return len(self.variants) * n_problems * self.runs

    def run_round(self, problems: list, seed: int) -> dict[str, str]:
        """All fits of one round through `full_benchmark`, then the reports."""
        bench = gea.harness.full_benchmark(problems, variants=self.variants, runs=self.runs,
                                           base_seed=seed, **self.solver_params())
        reports = {"results.csv": bench.results_csv(), "table.txt": bench.table_text()}
        if self.all_reports:
            reports["convergence.csv"] = bench.convergence_csv()
            reports["intervals.csv"] = bench.intervals_csv()
            for instance in bench.instances:
                reports[f"{instance}.svg"] = gea.charts.convergence_chart(
                    bench.mean_traces(instance), f"convergence on {instance}")
        return reports


WORKLOADS = {w.name: w for w in (
    Workload("routing-protocol", gea.VARIANTS, runs=2, max_iters=250,
             build=protocol_problems, all_reports=True),
    Workload("routing-large", ("ga", "gea"), runs=4, max_iters=100,
             build=large_routing_problems, all_reports=False),
    Workload("knapsack-long", ("ga", "gea"), runs=5, max_iters=150,
             build=long_knapsack_problems, all_reports=False),
)}


@dataclass(frozen=True)
class FitRecord:
    variant: str
    problem: object
    seed: int
    max_iters: int
    start: float
    end: float
    genes: np.ndarray
    cost: float
    trace: np.ndarray
    n_iters: int


class FitLog:
    """Records every fit `gea.harness` runs, with its wall time.

    `install` puts a `GeaSolver` subclass where the harness binds the name;
    the subclass only reads the clock around `fit` and keeps the result.
    """

    def __init__(self):
        self.records: list[FitRecord] = []
        self._original = None

    def install(self) -> None:
        records = self.records
        base = gea.solver.GeaSolver

        class RecordingSolver(base):
            def fit(self, problem):
                start = time.perf_counter()
                super().fit(problem)
                end = time.perf_counter()
                records.append(FitRecord(self.variant, problem, self.seed, self.max_iters,
                                         start, end, self.best_genes_, self.best_cost_,
                                         self.trace_, self.n_iters_))
                return self

        self._original = gea.harness.GeaSolver
        gea.harness.GeaSolver = RecordingSolver

    def uninstall(self) -> None:
        gea.harness.GeaSolver = self._original
